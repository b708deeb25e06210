"""The schedule's beams from parent sets against one inversion per served group.

Every block's beams come from its parent set's left inverse G and null
vector v, with no inverse formed. In GF the beams times their owner
gains must equal ``inverse_stack`` on the group's channel rows bit for
bit, and the beams must be refused exactly when that matrix is singular
or an owner gain is zero; in the full regime the owner gains are
-v_q / v_k. One elimination serves each parent set, not each group.
"""

import numpy as np
import pytest

import mscache.linalg as linalg
from mscache import (
    DegenerateChannel,
    DemandVector,
    LibraryConfig,
    PrimeField,
    build_schedule,
    draw_channel,
    is_supported,
    random_library,
    segment_sizes,
)
from mscache.channel import ChannelMatrix
from mscache.delivery import _beams, _block_beams, schedule_layout
from mscache.linalg import left_inverse_stack
from reference_kernels import inverse_stack

SUPPORTED = [(N, L) for N in range(2, 13) for L in range(1, N) if is_supported(N, L)]


@pytest.mark.parametrize("N, L", SUPPORTED + [(40, 13), (60, 29)])
def test_parent_sets_complete_groups_with_a_channel_row(N, L):
    # A group's parent set adds the member of its size-(L+1) segment that
    # the transmission skips, and otherwise the smallest user it does not
    # serve: always a real row, and in the full regime the row owner.
    layout = schedule_layout(N, L)
    assert layout.parents.max() < N
    if L == N - 1:
        assert len(layout.parents) == 1
    bounds = np.cumsum([0] + segment_sizes(N, L))
    for b, group in enumerate(layout.groups.tolist()):
        users = [u for u in range(N) if u != b // layout.transmissions]
        segment = next(
            users[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if group[0] in users[lo:hi]
        )
        if len(segment) == L + 1:
            (extra,) = set(segment) - set(group)
        else:
            extra = min(set(range(N)) - set(group))
        # keep and skip point at the group's members and the extra row
        # among the stacked rows of all parent sets.
        parent = layout.parents[layout.skip[b] // (L + 1)]
        assert parent.tolist() == sorted(group + [extra]), (N, L, b)
        assert layout.parents.ravel()[layout.skip[b]] == extra
        assert layout.parents.ravel()[layout.keep[b]].tolist() == group
        assert layout.owners[b] == b // layout.transmissions


@pytest.mark.parametrize("p", (7, 65537))
def test_beams_times_gains_equal_inverse_stack_bit_for_bit(p):
    # Channels are raw samples, not certified draws, so at p = 7 many
    # groups are singular and many gains zero: block by block, the beams
    # must refuse exactly those, and otherwise give the group's inverse.
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    refused = {"are dependent": 0, "is orthogonal": 0}
    for N, L in SUPPORTED:
        layout = schedule_layout(N, L)
        H = ChannelMatrix(field, field.sample_channel(rng, (N, L)))
        want, nonsingular = inverse_stack(field, H.H[layout.groups])
        owners = np.arange(len(layout.groups)) // layout.transmissions
        for b in range(len(layout.groups)):
            one = slice(b, b + 1)
            args = (layout.parents, owners[one], layout.groups[one], layout.keep[one],
                    layout.skip[one])
            gains = field.matmul(H.H[owners[b]], want[b])
            if not nonsingular[b] or not gains.all():
                reason = "is orthogonal" if nonsingular[b] else "are dependent"
                with pytest.raises(DegenerateChannel, match=reason):
                    _beams(H, *args)
                refused[reason] += 1
                continue
            factors = _beams(H, *args)
            beams = _block_beams(field, factors, layout.keep[one], layout.skip[one], slice(None))
            got = factors[-1]
            assert np.array_equal(got[0], gains), (N, L, b)
            assert np.array_equal(field.mul(beams[0], gains), want[b]), (N, L, b)
    assert all(refused.values()) or p == 65537


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


def _eliminated(monkeypatch, N, L, record=lambda a: a.shape[0]):
    """What the batched kernel eliminates while one channel is drawn and
    one schedule is built on it: by default the number of matrices of
    each call."""
    field = PrimeField(65537)
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    lib = random_library(field, N, cfg.F, 1)
    count = []
    kernel = linalg._gauss_jordan

    def counting(field, a):
        count.append(record(a))
        return kernel(field, a)

    monkeypatch.setattr(linalg, "_gauss_jordan", counting)
    H = draw_channel(N, L, 0, field)
    build_schedule(DemandVector(range(N)), H, lib, cfg)
    return count


def test_one_elimination_for_a_full_schedule(monkeypatch):
    # All 64 groups leave one user out of the same 64 rows: one parent
    # set, eliminated once for the draw's check and the schedule.
    assert _eliminated(monkeypatch, 64, 63) == [1]


def test_one_elimination_per_parent_set_at_17_5(monkeypatch):
    # Rows tile their 16 users as segments [5, 5, 6]: 14 distinct parent
    # sets (size-6 segments, and size-5 ones with the smallest user they
    # do not serve) cover the 33 distinct served groups.
    layout = schedule_layout(17, 5)
    assert len(np.unique(layout.groups, axis=0)) == 33
    assert len(layout.parents) == 14
    # The draw's check is the beams': it eliminates nothing else.
    assert _eliminated(monkeypatch, 17, 5, record=np.shape) == [(14, 6, 5)]


def test_plan_draw_eliminates_once_for_draw_and_schedule(monkeypatch):
    # The draw's check is the beam bank itself: one draw at seed 0
    # eliminates the 14 parent sets once, and the schedule reuses them.
    assert _eliminated(monkeypatch, 17, 5) == [14]
