"""Node-by-node encoder block built from autograd ops, for the tests.

This is the block as a graph of primitive ops, each with its own VJP. The
fused block in ``mvfa.backbone`` must reproduce its output and its input
gradient bit for bit.
"""

import numpy as np
import ops_oracle as ops

from mvfa import autograd as ag


def layer_norm(x, gamma=None, beta=None, eps=1e-5):
    """Per-row layer normalization; affine is applied when gamma is given."""
    mu = ops.mean(x, axis=1, keepdims=True)
    centered = ag.add(x, ag.scale(mu, -1.0))
    var = ops.mean(ops.mul(centered, centered), axis=1, keepdims=True)
    rstd = ops.exp(ag.scale(ops.log(ag.add(var, eps)), -0.5))
    normed = ops.mul(centered, rstd)
    if gamma is None:
        return normed
    return ag.add(ops.mul(normed, gamma), beta)


def block_forward(x, blk, config):
    head_dim = config.dim // config.heads
    att_scale = 1.0 / np.sqrt(head_dim)

    h = layer_norm(x, blk.ln1_g, blk.ln1_b)
    attended = None
    for wq, wk, wv, wo in zip(blk.wq, blk.wk, blk.wv, blk.wo):
        q = ag.matmul(h, wq)
        k = ag.matmul(h, wk)
        v = ag.matmul(h, wv)
        att = ops.softmax_rows(ag.scale(ag.matmul(q, ops.transpose(k)), att_scale))
        head = ag.matmul(ag.matmul(att, v), wo)
        attended = head if attended is None else ag.add(attended, head)
    x = ag.add(x, attended)

    h2 = layer_norm(x, blk.ln2_g, blk.ln2_b)
    hidden = ag.relu(ag.add(ag.matmul(h2, blk.mlp_w1), blk.mlp_b1))
    mlp = ag.add(ag.matmul(hidden, blk.mlp_w2), blk.mlp_b2)
    return ag.add(x, mlp)
