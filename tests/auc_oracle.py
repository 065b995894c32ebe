"""Rank-sum AUC by a stable argsort of every score, for the tests.

This is the argsort reference that ``mvfa.metrics.auc`` must match: a full
permutation of the scores, the midrank of each run of ties written back
through it, and the positives' ranks summed. ``metrics.auc`` counts wins
and ties instead, and must return the same float64, bit for bit.
"""

import numpy as np


def midranks(values):
    """1-based ranks with ties sharing their average rank; NaNs last, in input order."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    order = np.argsort(v, kind="stable")
    ranks = np.take(v, order)
    # a run of ties starts wherever a sorted value differs from the one before;
    # NaN differs from everything, so each NaN is its own run
    new_run = np.ones(n, dtype=bool)
    np.not_equal(ranks[1:], ranks[:-1], out=new_run[1:])
    first = np.arange(n, dtype=np.float64)
    ranks[:] = first
    first *= new_run
    np.maximum.accumulate(first, out=first)
    np.copyto(ranks[:-1], n, where=~new_run[1:])
    np.minimum.accumulate(ranks[::-1], out=ranks[::-1])
    # (first + last) / 2 + 1 of each run, exact for integer positions
    first += ranks
    first /= 2.0
    first += 1.0
    ranks[order] = first
    return ranks


def auc(scores, labels):
    """AUC of float64 scores against 0/1 labels of both classes."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    ranks = midranks(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
