"""Multi-level adapter tuning and two-branch comparison for anomaly detection.

A small numpy-backed engine: a reverse-mode autograd core, a deterministic
frozen ViT-style encoder, residual dual adapters aligned to prompt text
features, and zero-/few-shot scoring against a nearest-neighbor memory
bank, with synthetic defect data and AUC evaluation to exercise it end to
end.
"""

from .adaptation import (AdaptedFeatures, MVFAParams, adapt_forward, apply_adapter,
                         init_params, load_checkpoint, save_checkpoint)
from .autograd import Tensor, backward, no_grad
from .backbone import BackboneConfig, FrozenBackbone, init_backbone
from .data import (LoadedSample, ModalityProfile, Sample, SynthConfig, few_shot_split,
                   gen_dataset, load_manifest, load_sample, load_samples, read_pgm,
                   write_pgm, zero_shot_split)
from .inference import (AnomalyResult, MemoryBank, build_memory_bank, few_shot, load_bank,
                        load_map, save_bank, save_map, score_image, zero_shot)
from .metrics import Report, auc, evaluate
from .objective import (AdamState, LossWeights, TrainConfig, adam_step, level_loss,
                        total_loss, train)
from .textbank import (PromptSet, TextFeatures, build_text_features, default_prompt_set,
                       encode_text_stub, expand_prompts, load_prompt_set)

__version__ = "0.1.0"
