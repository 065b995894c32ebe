"""Node-by-node encoder block built from autograd ops, for the tests.

This is the block as a graph of primitive ops, each with its own VJP. The
fused block in ``mvfa.backbone`` must reproduce its output and its input
gradient bit for bit.
"""

import numpy as np

from mvfa import autograd as ag


def layer_norm(x, gamma=None, beta=None, eps=1e-5):
    """Per-row layer normalization; affine is applied when gamma is given."""
    mu = ag.mean(x, axis=1, keepdims=True)
    centered = ag.add(x, ag.scale(mu, -1.0))
    var = ag.mean(ag.mul(centered, centered), axis=1, keepdims=True)
    rstd = ag.exp(ag.scale(ag.log(ag.add(var, eps)), -0.5))
    normed = ag.mul(centered, rstd)
    if gamma is None:
        return normed
    return ag.add(ag.mul(normed, gamma), beta)


def block_forward(x, blk, config):
    head_dim = config.dim // config.heads
    att_scale = 1.0 / np.sqrt(head_dim)

    h = layer_norm(x, blk.ln1_g, blk.ln1_b)
    attended = None
    for wq, wk, wv, wo in zip(blk.wq, blk.wk, blk.wv, blk.wo):
        q = ag.matmul(h, wq)
        k = ag.matmul(h, wk)
        v = ag.matmul(h, wv)
        att = ag.softmax_rows(ag.scale(ag.matmul(q, ag.transpose(k)), att_scale))
        head = ag.matmul(ag.matmul(att, v), wo)
        attended = head if attended is None else ag.add(attended, head)
    x = ag.add(x, attended)

    h2 = layer_norm(x, blk.ln2_g, blk.ln2_b)
    hidden = ag.relu(ag.add(ag.matmul(h2, blk.mlp_w1), blk.mlp_b1))
    mlp = ag.add(ag.matmul(hidden, blk.mlp_w2), blk.mlp_b2)
    return ag.add(x, mlp)
