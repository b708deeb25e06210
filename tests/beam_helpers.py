"""Zero-forcing beams of arbitrary groups of channel rows, from the
schedule's own kernels (``delivery._beams`` and ``delivery._block_beams``).

The kernel serves groups that come with a parent set and an owner row.
Here the channel gains a zero row, which completes every group to its
parent set (the parent's left null vector lives on that row alone, so
the group's inverse is the parent's left inverse G), and one owner row
per group: nonzero weights times the group's rows, so that the owner
gains are exactly those weights. The beams, formed from ``_beams``'
factors as synthesis forms them, come back at unit owner gain; times
their gains, column by column, they must be the group's inverse,
column q the zero-forcing beam of the group's q-th user.
"""

import numpy as np

from mscache.channel import ChannelMatrix
from mscache.delivery import _beam_indices, _beams, _block_beams


def group_beams(field, H, groups, seed=0):
    """(inverses, gains, weights) of ``_beams`` over groups (n, L) of H's rows.

    inverses[b] is beams[b] with column q times gains[b, q]; weights[b]
    are the owner row's coefficients over the group's rows. Raises what
    ``_beams`` raises, DegenerateChannel for a dependent group.
    """
    H = field.convert(H)
    K, L = H.shape
    groups = np.asarray(groups).reshape(-1, L)
    n = len(groups)
    weights = field.sample_channel(np.random.default_rng(seed), (n, L))
    owner_rows = field.matmul(weights[:, None, :], H[groups])[:, 0]
    padded = ChannelMatrix(field, np.concatenate([H, field.zeros((1, L)), owner_rows]))
    parents = np.append(groups, np.full((n, 1), K), axis=1)
    owners = K + 1 + np.arange(n)
    indices = _beam_indices(np.arange(n), np.full(n, L), L)
    factors = _beams(padded, parents, owners, groups, **indices)
    beams = _block_beams(field, factors, indices["keep"], indices["skip"], slice(None))
    gains = factors[-1]
    return field.mul(beams, gains[:, None, :]), gains, weights
