"""Per-sample training loop built from op-by-op autograd graphs, for the tests.

Every sample of a step gets a graph of its own: the patch embedding, the
encoder blocks of ``block_oracle``, the adapters and projections as
primitive ops, and the level losses of ``loss_oracle``. The sample losses
are added one at a time, the sum is scaled by 1/B, and one backward pass
feeds one Adam update. ``mvfa.objective.train`` runs a step as batched
graphs of at most ``SUB_BATCH`` samples and must reproduce this loop's loss
history and parameters bit for bit.
"""

import block_oracle
import loss_oracle
import numpy as np

from mvfa import autograd as ag
from mvfa.adaptation import ARCH_PROJECTOR, STYLE_SINGLE
from mvfa.autograd import Tensor
from mvfa.backbone import patch_tokens
from mvfa.objective import AdamState, adam_step


def _encoder_levels(backbone, image, hook):
    """Raw outputs of stages 1..4; ``hook`` maps each of stages 1..3 to the next input."""
    tokens = patch_tokens(image, backbone.config).astype(backbone.dtype)
    x = ag.add(ag.matmul(Tensor(tokens), backbone.patch_w), backbone.pos)
    levels = []
    for index, blocks in enumerate(backbone.stages):
        if index:
            levels.append(x)
            x = hook(index, x)
        for blk in blocks:
            x = block_oracle.block_forward(x, blk, backbone.config)
    return levels + [x]


def _mix(f, adapted, gamma):
    return ag.add(ag.scale(adapted, gamma), ag.scale(f, 1.0 - gamma))


def _adapter(f, params, prefix):
    return ag.matmul(ag.relu(ag.matmul(f, params[f"{prefix}.down"])), params[f"{prefix}.up"])


def features(backbone, params, image):
    """Per-level (cls, seg) feature lists of one image."""
    if params.arch == ARCH_PROJECTOR:
        levels = _encoder_levels(backbone, image, lambda level, f: f)
        return ([ag.matmul(f, params[f"level{i}.cls"]) for i, f in enumerate(levels, 1)],
                [ag.matmul(f, params[f"level{i}.seg"]) for i, f in enumerate(levels, 1)])
    cls, seg = [], []

    def hook(level, f):
        single = params.adapter_style == STYLE_SINGLE
        cls_adapted = _adapter(f, params, f"adapter{level}" + ("" if single else ".cls"))
        seg_adapted = cls_adapted if single else _adapter(f, params, f"adapter{level}.seg")
        cls.append(_mix(f, cls_adapted, params.gamma))
        seg.append(_mix(f, seg_adapted, params.gamma))
        return _mix(f, ag.scale(ag.add(cls_adapted, seg_adapted), 0.5), params.gamma)

    final = _encoder_levels(backbone, image, hook)[-1]
    return (cls + [ag.matmul(final, params["projector.cls"])],
            seg + [ag.matmul(final, params["projector.seg"])])


def train(backbone, params, samples, text_features, config):
    """Train one sample graph at a time; returns the per-epoch mean losses."""
    named = params.named_tensors()
    state = AdamState(named)
    rng = np.random.default_rng(config.seed)
    out_hw = (backbone.config.image_size, backbone.config.image_size)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(samples))
        weighted = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            batch = None
            for index in chunk:
                sample = samples[index]
                cls, seg = features(backbone, params, sample.image)
                loss = None
                for level in config.levels:
                    part = loss_oracle.level_loss(
                        cls[level - 1], seg[level - 1], text_features[sample.modality],
                        sample.label, sample.mask, config.weights, tau=config.tau,
                        out_hw=out_hw)
                    loss = part if loss is None else ag.add(loss, part)
                batch = loss if batch is None else ag.add(batch, loss)
            batch = ag.scale(batch, 1.0 / len(chunk))
            value = float(batch.data)
            grads = ag.backward(batch)
            adam_step([(n, p) for n, p in named if p in grads], grads, state, config.lr)
            weighted += value * len(chunk)
        history.append(weighted / len(samples))
    return history
