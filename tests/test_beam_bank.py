"""The rank-one beam bank against one inversion per served group.

Every block's zero-forcing inverse is a rank-one update of its parent
set's left inverse. In GF it must equal ``inverse_stack`` on the
group's channel rows bit for bit, and exist exactly when that matrix is
nonsingular; in the full regime the owner gains are -v_q / v_k. One
elimination serves each parent set, not each group.
"""

import numpy as np
import pytest

import mscache.linalg as linalg
from mscache import (
    DemandVector,
    LibraryConfig,
    PrimeField,
    build_schedule,
    draw_channel,
    inverse_stack,
    is_supported,
    random_library,
)
from mscache.channel import ChannelMatrix
from mscache.delivery import _beam_bank, schedule_layout
from mscache.linalg import left_inverse_stack

SUPPORTED = [(N, L) for N in range(2, 13) for L in range(1, N) if is_supported(N, L)]


@pytest.mark.parametrize("p", (7, 65537))
def test_rank_one_inverses_equal_inverse_stack_bit_for_bit(p):
    # Channels are raw samples, not certified draws, so at p = 7 many
    # groups are singular: the bank must flag exactly those.
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    singular = 0
    for N, L in SUPPORTED:
        layout = schedule_layout(N, L)
        H = ChannelMatrix(field, field.sample_channel(rng, (N, L)))
        inverses, exists = _beam_bank(H, layout.parents, layout.parent_ids, layout.left_out)
        want, nonsingular = inverse_stack(field, H.H[layout.groups])
        assert np.array_equal(exists, nonsingular), (N, L)
        assert np.array_equal(inverses[exists], want[exists]), (N, L)
        singular += int((~exists).sum())
    assert singular or p == 65537


@pytest.mark.parametrize("p", (7, 65537))
def test_full_regime_gains_are_null_vector_ratios(p):
    field = PrimeField(p)
    for N in range(2, 13):
        H = draw_channel(N, N - 1, N, field)
        cfg = LibraryConfig(N=N, K=N, L=N - 1, F=N * (N - 1))
        sched = build_schedule(DemandVector(range(N)), H, random_library(field, N, cfg.F, N), cfg)
        _, v, full_rank = left_inverse_stack(field, H.H[None])
        v = v[0]
        assert full_rank[0]
        for k, block in enumerate(sched.blocks):
            assert block.owner == k
            ratio = field.mul(v, field.inv_each(v[k]))
            want = field.neg(np.delete(ratio, k))
            assert np.array_equal(np.array(block.gains), want), (N, k)


def _eliminated(monkeypatch, N, L):
    """Matrices the batched kernel eliminates while one schedule is built."""
    field = PrimeField(65537)
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    H = draw_channel(N, L, 0, field)
    lib = random_library(field, N, cfg.F, 1)
    count = []
    kernel = linalg._gauss_jordan

    def counting(field, a):
        count.append(a.shape[0])
        return kernel(field, a)

    monkeypatch.setattr(linalg, "_gauss_jordan", counting)
    build_schedule(DemandVector(range(N)), H, lib, cfg)
    return count


def test_one_elimination_for_a_full_schedule(monkeypatch):
    # All 64 groups leave one user out of the same 64 rows.
    assert _eliminated(monkeypatch, 64, 63) == [1]


def test_one_elimination_per_parent_set_at_17_5(monkeypatch):
    # Rows tile their 16 users as segments [5, 5, 6]: 19 distinct parent
    # sets (size-6 segments, and size-5 ones with the zero row) cover the
    # 33 distinct served groups.
    layout = schedule_layout(17, 5)
    assert len(np.unique(layout.groups, axis=0)) == 33
    assert len(layout.parents) == 19
    assert _eliminated(monkeypatch, 17, 5) == [19]
