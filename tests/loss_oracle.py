"""Op-by-op alignment loss built from autograd ops, for the tests.

This is each level's Dice + Focal + BCE as a graph of primitive ops, each
with its own VJP. The fused level node in ``mvfa.objective`` must reproduce
its value and its gradients bit for bit.
"""

import math

import numpy as np
import ops_oracle as ops

from mvfa import autograd as ag
from mvfa.autograd import Tensor
from mvfa.objective import DICE_SMOOTH, PROB_EPS, _as_mask


def dice_loss(p, s):
    mask = _as_mask(s, p)
    inter = ops.sum(ops.mul(p, Tensor(mask)))
    numer = ag.add(ag.scale(inter, 2.0), DICE_SMOOTH)
    denom = ag.add(ops.sum(p), float(mask.sum()) + DICE_SMOOTH)
    return ag.add(ag.scale(ops.div(numer, denom), -1.0), 1.0)


def focal_loss(p, s):
    mask = _as_mask(s, p)
    m = Tensor(mask)
    p_t = ag.add(ops.mul(p, m), ops.mul(ag.add(ag.scale(p, -1.0), 1.0), Tensor(1.0 - mask)))
    p_t = ops.clip(p_t, PROB_EPS, 1.0 - PROB_EPS)
    one_minus = ag.add(ag.scale(p_t, -1.0), 1.0)
    weight = ops.mul(one_minus, one_minus)
    return ag.scale(ops.mean(ops.mul(weight, ops.log(p_t))), -1.0)


def bce_image(prob, c):
    c = int(c)
    prob = ops.clip(prob, PROB_EPS, 1.0 - PROB_EPS)
    if c == 1:
        return ag.scale(ops.log(prob), -1.0)
    return ag.scale(ops.log(ag.add(ag.scale(prob, -1.0), 1.0)), -1.0)


def anomaly_column(features, f_text, tau):
    probs = ops.softmax_rows(ops.similarity_logits(features, f_text, tau))
    selector = Tensor(np.array([[0.0], [1.0]], dtype=probs.dtype))
    return ag.matmul(probs, selector)


def level_loss(cls_l, seg_l, f_text, c, s, weights, tau=0.07, out_hw=None):
    parts = []
    if s is not None and (weights.lambda1 > 0 or weights.lambda2 > 0):
        grid = int(math.isqrt(seg_l.shape[0]))
        if out_hw is None:
            out_hw = np.asarray(s).shape
        anomaly = anomaly_column(seg_l, f_text, tau)
        upsampled = ops.bilinear_upsample(ops.reshape(anomaly, (grid, grid)), out_hw)
        if weights.lambda1 > 0:
            parts.append(ag.scale(dice_loss(upsampled, s), weights.lambda1))
        if weights.lambda2 > 0:
            parts.append(ag.scale(focal_loss(upsampled, s), weights.lambda2))
    if weights.lambda3 > 0:
        peak = ops.max(anomaly_column(cls_l, f_text, tau))
        parts.append(ag.scale(bce_image(peak, c), weights.lambda3))
    if not parts:
        return Tensor(np.zeros((), dtype=cls_l.dtype))
    total = parts[0]
    for part in parts[1:]:
        total = ag.add(total, part)
    return total
