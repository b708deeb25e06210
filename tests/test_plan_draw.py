"""The plan-aware channel draw and the channel's memoized beams.

``draw_channel`` accepts a draw when the schedule can zero-force every
served group with a nonzero owner gain, and asks nothing of the row
subsets that no group uses. The reference here decides that per group
with ``reference_kernels.inverse_stack``, not through the beam bank. A ``ChannelMatrix``
owns a private read-only copy of its matrix and computes its schedule's
beams, and so eliminates each set of parent rows, at most once.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import mscache.delivery as delivery
from mscache import (
    ChannelMatrix,
    ComplexField,
    DegenerateChannel,
    DemandVector,
    LibraryConfig,
    PrimeField,
    ResamplingExhausted,
    WrongRegime,
    build_schedule,
    draw_channel,
    is_supported,
    random_library,
)
from mscache.delivery import DRAW_BUDGET, _layout_beams, schedule_layout
from mscache.linalg import left_inverse_stack
from reference_kernels import inverse_stack

SUPPORTED = [(N, L) for N in range(2, 9) for L in range(1, N) if is_supported(N, L)]


def _schedulable(field, H, N, L) -> bool:
    """Every served group invertible and every owner gain nonzero, group by group."""
    layout = schedule_layout(N, L)
    inverses, nonsingular = inverse_stack(field, H[layout.groups])
    if not nonsingular.all():
        return False
    owners = np.arange(len(layout.groups)) // layout.transmissions
    gains = field.matmul(H[owners][:, None, :], inverses)[:, 0]
    return not field.is_zero(gains).any()


def _counted(draw, N, L, seed, field):
    """(H, draws) from a draw function, counting its channel samples."""
    draws = 0
    sample = field.sample_channel

    def counting(rng, shape):
        nonlocal draws
        draws += 1
        return sample(rng, shape)

    field.sample_channel = counting
    try:
        return draw(N, L, seed, field).H, draws
    except ResamplingExhausted:
        return None, draws
    finally:
        del field.sample_channel


@pytest.mark.parametrize("p", (5, 7, 11, 65537))
def test_plan_draw_accepts_exactly_the_schedulable_draws(p):
    field = PrimeField(p)
    rejected = 0
    for N, L in SUPPORTED:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            want = None
            for want_draws in range(1, DRAW_BUDGET + 1):
                H = field.sample_channel(rng, (N, L))
                if _schedulable(field, H, N, L):
                    want = H
                    break
            got, got_draws = _counted(draw_channel, N, L, seed, field)
            assert got_draws == want_draws, (p, N, L, seed)
            assert (got is None) == (want is None), (p, N, L, seed)
            if want is not None:
                assert field.equal(got, want)
            rejected += want_draws - 1
    assert rejected or p == 65537


def _all_subsets_draw(N, L, seed, field):
    """(H, draws) accepting the first sample whose every L-row subset is invertible."""
    rng = np.random.default_rng(seed)
    subsets = [list(rows) for rows in combinations(range(N), L)]
    for draws in range(1, DRAW_BUDGET + 1):
        H = field.sample_channel(rng, (N, L))
        if inverse_stack(field, H[subsets])[1].all():
            return H, draws
    return None, DRAW_BUDGET


@pytest.mark.parametrize("p", (3, 5, 7, 65537))
def test_plan_draw_is_draw_channel_in_the_full_regime(p):
    # With L = N-1 the groups are the N-row channel without one row each,
    # so the draw asks what a draw requiring every L-row subset to be
    # invertible asks, of the same stream.
    field = PrimeField(p)
    for N in range(2, 9):
        for seed in range(4):
            want = _all_subsets_draw(N, N - 1, seed, field)
            got = _counted(draw_channel, N, N - 1, seed, field)
            assert got[1] == want[1], (p, N, seed)
            assert (got[0] is None) == (want[0] is None)
            if want[0] is not None:
                assert field.equal(got[0], want[0])


@pytest.mark.parametrize("field", (PrimeField(65537), ComplexField()), ids=("gf", "complex"))
def test_plan_draw_takes_one_draw_at_reduced_scale(field):
    # A draw that required every L-row subset to be invertible took 5,
    # 14, 7 and 11 samples at (20, 9) over GF(65537) and ran out of
    # samples at (24, 11).
    for N, L in ((20, 9), (24, 11)):
        for seed in range(4):
            assert _counted(draw_channel, N, L, seed, field)[1] == 1


def test_plan_draw_redraws_at_a_generic_reduced_cell():
    # (69, 33) at GF(65537), seed 0, is a generic cell that redraws: its
    # first 8 samples each leave some beam a zero owner gain. Any change
    # to the acceptance rule moves this count.
    assert _counted(draw_channel, 69, 33, 0, PrimeField(65537))[1] == 9


def _plan_subsets(N, L):
    """The L-row subsets the schedule at (N, L) inverts or divides by.

    Every served group, and every group with one served user swapped
    for the row owner: the owner gain of that user's beam is zero
    exactly when this subset is dependent.
    """
    layout = schedule_layout(N, L)
    owners = np.arange(len(layout.groups)) // layout.transmissions
    subsets = set()
    for owner, group in zip(owners.tolist(), layout.groups.tolist()):
        subsets.add(tuple(group))
        for q in range(L):
            subsets.add(tuple(sorted(group[:q] + group[q + 1 :] + [owner])))
    return np.array(sorted(subsets))


def test_complex_plan_check_is_never_looser_than_the_rank_loop():
    # The last row is the sum of the first two plus noise of size eps.
    # Wherever the rank test (``inverse_stack``'s) on a subset the
    # schedule uses rejects, the beams refuse.
    # With the owner gains held only to inv_each's absolute floor, 39
    # draws at (7, 3), (9, 4) and (12, 5) got through, between eps = 3e-13
    # and 3e-10.
    field = ComplexField()
    accepted = rejected = 0
    for N, L in ((5, 2), (7, 3), (9, 4), (12, 5)):
        subsets = _plan_subsets(N, L)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            H = field.sample_channel(rng, (N, L))
            _layout_beams(ChannelMatrix(field, H))
            for eps in 10.0 ** np.arange(-14, -2.5, 0.5):
                near = H.copy()
                near[-1] = H[0] + H[1] + eps * field.sample(rng, L)
                if inverse_stack(field, near[subsets])[1].all():
                    accepted += 1
                else:
                    rejected += 1
                    with pytest.raises(DegenerateChannel):
                        _layout_beams(ChannelMatrix(field, near))
    assert accepted and rejected


def _inverse_stack_verdict(field, H, N, L) -> bool:
    """The beams' verdict by a second route: every group inverted on its
    own by ``inverse_stack``, each owner gain taken from that inverse and
    held to ``null_support``, and the parent sets' residual rule."""
    layout = schedule_layout(N, L)
    inverses, nonsingular = inverse_stack(field, H[layout.groups])
    if not nonsingular.all():
        return False
    gains = field.matmul(H[layout.owners][:, None, :], inverses)[:, 0]
    null = np.concatenate([gains, np.ones_like(gains[:, :1])], axis=1)
    if not field.null_support(null)[:, :-1].all():
        return False
    G, v, _ = left_inverse_stack(field, H[layout.parents])
    return field.inverses_hold(H, layout.parents, G, v, layout.skip)


def test_complex_verdict_does_not_depend_on_the_beam_route():
    # The near-dependent grid above: the fused beams (``_beams``) and the
    # groups' own inverses must accept and refuse the same draws. With a
    # per-block residual against zero_atol the two routes disagreed on 24
    # of 9016 such channels at N <= 12; the residual rule reads only the
    # parent sets' eliminations, which both routes share.
    field = ComplexField()
    outcomes = set()
    for N, L in [(N, L) for N in range(2, 13) for L in range(1, N) if is_supported(N, L)]:
        for seed in range(2):
            rng = np.random.default_rng(seed)
            H = field.sample_channel(rng, (N, L))
            for eps in 10.0 ** np.arange(-14, -2.5, 0.5):
                near = H.copy()
                near[-1] = H[0] + H[1] + eps * field.sample(rng, L)
                try:
                    _layout_beams(ChannelMatrix(field, near))
                    outcome = "accepted"
                except DegenerateChannel as e:
                    outcome = "residual" if "residual" in str(e) else "dependent or zero gain"
                want = _inverse_stack_verdict(field, near, N, L)
                assert (outcome == "accepted") == want, (N, L, seed, eps)
                outcomes.add(outcome)
    assert outcomes == {"accepted", "residual", "dependent or zero gain"}


def test_plan_draw_refuses_what_it_cannot_draw():
    with pytest.raises(WrongRegime):
        draw_channel(6, 6, seed=0, field=PrimeField(65537))
    with pytest.raises(WrongRegime):
        draw_channel(1, 1, seed=0, field=PrimeField(65537))
    # Over GF(2) every channel entry is 1, so any two rows are equal.
    with pytest.raises(ResamplingExhausted):
        draw_channel(4, 2, seed=0, field=PrimeField(2))


def _recorded_refusals(monkeypatch) -> list:
    """A list that collects the kind of every refusal of the beams' kernel."""
    refusals = []
    beams = delivery._beams

    def recording(*args):
        try:
            return beams(*args)
        except DegenerateChannel as e:
            refusals.append("dependent" if "are dependent" in str(e) else "zero gain")
            raise

    monkeypatch.setattr(delivery, "_beams", recording)
    return refusals


SMALL_REDUCED = [(N, L) for N in range(4, 10) for L in range(2, N - 1) if is_supported(N, L)]


def test_gf3_exhausts_every_reduced_pair_with_two_or_more_antennas(monkeypatch):
    # Over GF(3) the schedule refuses every sample at these pairs, each
    # for a dependent group: at L = 2, for one, channel rows take only 2
    # directions, so a row's pairs of users cannot all be independent.
    refusals = _recorded_refusals(monkeypatch)
    assert len(SMALL_REDUCED) == 15
    for N, L in SMALL_REDUCED:
        for seed in range(3):
            with pytest.raises(ResamplingExhausted):
                draw_channel(N, L, seed, PrimeField(3))
    assert set(refusals) == {"dependent"}
    assert len(refusals) == 15 * 3 * DRAW_BUDGET


def test_gf5_and_gf7_draws_meet_both_refusals(monkeypatch):
    # A zero null-vector entry (a dependent group) and a zero owner gain
    # each refuse samples that GF(5) and GF(7) draw at these pairs.
    refusals = _recorded_refusals(monkeypatch)
    for p in (5, 7):
        for N, L in SMALL_REDUCED:
            try:
                draw_channel(N, L, 0, PrimeField(p))
            except ResamplingExhausted:
                pass
    assert set(refusals) == {"dependent", "zero gain"}


def test_channel_keeps_a_private_read_only_copy():
    field = PrimeField(65537)
    source = field.sample_channel(np.random.default_rng(0), (4, 3))
    kept = source.copy()
    H = ChannelMatrix(field, source)
    with pytest.raises(ValueError):
        H.H[0, 0] = 1
    source[0] = 5
    assert np.array_equal(H.H, kept)
    assert left_inverse_stack(field, H.H[None])[2][0]


def test_plan_draw_and_schedule_share_the_beams(monkeypatch):
    field = PrimeField(65537)
    cfg = LibraryConfig(N=17, K=17, L=5, F=85)
    calls = []
    beams = delivery._beams
    eliminations = []
    eliminate = delivery.left_inverse_stack

    def counting(*args):
        calls.append(len(args[-1]))
        return beams(*args)

    def recording(*args):
        eliminations.append(eliminate(*args))
        return eliminations[-1]

    monkeypatch.setattr(delivery, "_beams", counting)
    monkeypatch.setattr(delivery, "left_inverse_stack", recording)
    H = draw_channel(17, 5, 0, field)
    schedule = build_schedule(DemandVector(range(17)), H, random_library(field, 17, 85, 1), cfg)
    assert calls == [len(schedule.layout.groups)]
    assert schedule.gains is _layout_beams(H)[-1]
    assert not schedule.gains.flags.writeable
    # G's columns, shifts and gains: no per-block beam stack, and the
    # columns a view of the parent sets' elimination, not a copy.
    columns, shifts, gains = _layout_beams(H)
    assert [a.ndim for a in (columns, shifts, gains)] == [2, 2, 2]
    assert len(eliminations) == 1
    G = eliminations[0][0]
    assert columns.base is G.base is not None and columns.flags.c_contiguous
    assert np.shares_memory(columns, G)
    assert np.array_equal(columns, G.swapaxes(1, 2).reshape(-1, 5))


def test_plan_draw_and_schedule_hold_no_beam_stack():
    # The channel keeps only the beams' factors and each row block forms
    # its own beams. At (64, 62) the 4032 blocks' 62 x 62 beams would
    # take 118 MiB as one stack; the draw and schedule together peak
    # near 16 MiB. The cached layout is built first, outside the count.
    field = PrimeField(65537)
    N, L = 64, 62
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    library = random_library(field, N, cfg.F, 1)
    schedule_layout(N, L)
    tracemalloc.start()
    try:
        H = draw_channel(N, L, 0, field)
        build_schedule(DemandVector(range(N)), H, library, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _retained(build) -> int:
    """Bytes still allocated, by tracemalloc, once build() has returned
    what it made; only its result holds them."""
    tracemalloc.start()
    try:
        kept = build()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return size


def _cold_layout():
    schedule_layout.cache_clear()
    return schedule_layout(64, 62)


@pytest.mark.parametrize("build, field, bound", [
    (_cold_layout, PrimeField(65537), 6.5),
    (lambda: draw_channel(64, 62, 0, PrimeField(65537)), PrimeField(65537), 6.2),
    (lambda: draw_channel(64, 62, 0, ComplexField()), ComplexField(), 12.5),
], ids=["gf layout", "gf channel memo", "complex channel memo"])
def test_layout_and_channel_memo_keep_one_copy_of_each_table(build, field, bound):
    # At (64, 62) the layout keeps its groups, keep and coefficients,
    # 1.9 MiB each, and the channel memo each parent set's elimination
    # and the (B, L) shifts and gains, 1.9 MiB each in GF and twice that
    # in complex mode. Stored besides, the owner-gain and scale indices,
    # the pattern's own cache, G's columns as a copy, 1 / g and the
    # complex kernel's working matrix took 11.9, 9.6 and 23.1 MiB. A
    # small draw first builds what every draw shares, such as the
    # field's table of inverses, and the memo's draw reuses the cached
    # layout.
    draw_channel(5, 3, 0, field)
    schedule_layout(64, 62)
    assert _retained(build) <= bound * 2**20
