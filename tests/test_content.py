"""Library model, subfile/minifile views, coded placement, fixtures."""

from fractions import Fraction

import numpy as np
import pytest

from mscache import (
    DemandVector,
    InconsistentInputs,
    IndivisibleFile,
    Library,
    LibraryConfig,
    PrimeField,
    WrongRegime,
    load_library,
    place_caches,
    random_library,
    save_library,
)

GF = PrimeField(65537)
GF7 = PrimeField(7)


def test_config_invariants():
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    assert cfg.M == Fraction(1, 4)
    assert cfg.subfile_symbols == 3
    assert cfg.minifile_symbols == 3  # L = N-1: one minifile, the whole subfile
    assert LibraryConfig(N=4, K=4, L=2, F=16).minifile_symbols == 2  # m = L = 2
    with pytest.raises(WrongRegime):
        LibraryConfig(N=4, K=3, L=3, F=12)  # regime needs K = N
    with pytest.raises(WrongRegime):
        LibraryConfig(N=4, K=4, L=4, F=16)  # L beyond N-1
    with pytest.raises(IndivisibleFile):
        LibraryConfig(N=5, K=5, L=4, F=7)  # 7 not divisible by 5
    with pytest.raises(IndivisibleFile):
        LibraryConfig(N=4, K=4, L=2, F=4)  # reduced regime needs N*L | F


def test_split_file_contiguous_tiling():
    lib = Library(GF, np.arange(1, 9, dtype=np.int64).reshape(1, 8).repeat(4, axis=0))
    views = lib.parts(1)[0, :, 0]
    assert views.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert GF.equal(views.ravel(), lib.data[0])
    assert np.shares_memory(views, lib.data)  # a view, not a copy


def test_split_file_single_symbol_parts():
    lib = Library(GF, [[5, 9], [2, 4]])
    views = lib.parts(1)[1, :, 0]
    assert len(views) == 2
    assert views[0].tolist() == [2] and views[1].tolist() == [4]


def test_split_file_indivisible():
    lib = Library(GF, np.zeros((5, 7), dtype=np.int64))
    with pytest.raises(IndivisibleFile):
        lib.parts(1)


def test_split_subfile_tiling():
    lib = Library(GF, np.arange(24, dtype=np.int64).reshape(2, 12))
    minis = lib.parts(3)[0, 1]  # subfile 1 of file 0: symbols 6..11
    assert minis.tolist() == [[6, 7], [8, 9], [10, 11]]
    with pytest.raises(IndivisibleFile):
        lib.parts(4)


def test_place_caches_is_subfile_sum():
    rng = np.random.default_rng(5)
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = Library(GF, GF.sample(rng, (4, 12)))
    caches = place_caches(lib, cfg)
    assert len(caches) == 4
    for k, z in enumerate(caches):
        assert z.payload.shape == (3,)  # exactly F/N symbols, cache met tight
        want = GF.zeros(3)
        for n in range(4):
            want = GF.add(want, lib.data[n, 3 * k : 3 * k + 3])
        assert GF.equal(z.payload, want)


def test_place_caches_constant_library_gf7():
    # five constant-1 files over GF(7): every cache symbol is 5
    cfg = LibraryConfig(N=5, K=5, L=4, F=10)
    lib = Library(GF7, np.ones((5, 10), dtype=np.int64))
    caches = place_caches(lib, cfg)
    for z in caches:
        assert GF7.equal(z.payload, np.full(2, 5, dtype=np.int64))


def test_place_caches_reduces_column_sums_past_p():
    # Nine files over GF(7): a cache symbol sums nine residues, up to 54,
    # and must come back as the canonical residue of that sum.
    cfg = LibraryConfig(N=9, K=9, L=8, F=18)
    lib = Library(GF7, np.full((9, 18), 6, dtype=np.int64))
    for z in place_caches(lib, cfg):
        assert z.payload.tolist() == [54 % 7] * 2
    rng = np.random.default_rng(4)
    lib = Library(GF7, GF7.sample(rng, (9, 18)))
    caches = place_caches(lib, cfg)
    for k, z in enumerate(caches):
        want = [sum(int(lib.data[n, 2 * k + t]) for n in range(9)) % 7 for t in range(2)]
        assert z.payload.dtype == np.int64
        assert z.payload.tolist() == want


def test_place_caches_reduces_the_sum_in_slices(monkeypatch):
    # A slice of 5 symbols ends inside one cache and across two; every
    # symbol of the sum, the last slice's too, is still reduced.
    import mscache.content as content

    monkeypatch.setattr(content, "CHUNK_BYTES", 40)
    cfg = LibraryConfig(N=9, K=9, L=8, F=18)
    lib = Library(GF7, np.full((9, 18), 6, dtype=np.int64))
    assert [z.payload.tolist() for z in place_caches(lib, cfg)] == [[54 % 7] * 2] * 9


def test_place_caches_degenerate_single_file():
    cfg = LibraryConfig(N=1, K=1, L=1, F=4)
    lib = Library(GF, [[3, 1, 4, 1]])
    caches = place_caches(lib, cfg)
    assert GF.equal(caches[0].payload, [3, 1, 4, 1])


def test_demand_vector_distinctness():
    d = DemandVector([2, 0, 1])
    assert tuple(d) == (2, 0, 1) and len(d) == 3 and d[0] == 2
    with pytest.raises(InconsistentInputs):
        DemandVector([0, 0, 1])


def test_demand_vector_refuses_non_integral_entries():
    # Integral floats are accepted, as the field's convert accepts them.
    assert DemandVector([1.0, 0]).d == (1, 0)
    assert DemandVector(np.array([2.0, 0.0, 1.0])).d == (2, 0, 1)
    for bad in ([1.7, 0], [0, 2.5, 1], np.array([0.5, 1.0]), [np.nan, 0], [np.inf, 0]):
        with pytest.raises(InconsistentInputs, match="must be integers"):
            DemandVector(bad)


def test_random_library_seeded():
    a = random_library(GF, 3, 6, seed=9)
    b = random_library(GF, 3, 6, seed=9)
    c = random_library(GF, 3, 6, seed=10)
    assert GF.equal(a.data, b.data)
    assert not GF.equal(a.data, c.data)


def test_library_save_load_roundtrip_gf(tmp_path):
    cfg = LibraryConfig(N=4, K=4, L=2, F=8)
    lib = random_library(GF, 4, 8, seed=3)
    path = tmp_path / "lib.bin"
    save_library(lib, cfg, path)
    lib2, cfg2 = load_library(path)
    assert cfg2 == cfg
    assert lib2.field == GF
    assert GF.equal(lib2.data, lib.data)


def test_library_save_load_roundtrip_complex(tmp_path):
    from mscache import ComplexField, make_field

    field = make_field("complex")
    cfg = LibraryConfig(N=3, K=3, L=2, F=6)
    lib = random_library(field, 3, 6, seed=4)
    path = tmp_path / "clib.bin"
    save_library(lib, cfg, path)
    lib2, cfg2 = load_library(path)
    assert isinstance(lib2.field, ComplexField)
    assert cfg2 == cfg
    assert np.array_equal(lib2.data, lib.data)


def test_load_rejects_garbage(tmp_path):
    good = tmp_path / "good.bin"
    save_library(Library(GF7, np.ones((4, 8), dtype=np.int64)), LibraryConfig(4, 4, 2, 8), good)
    # 32 header bytes: magic, version, mode tag, pad, N, K, L, F, then p at 24
    raw = good.read_bytes()
    bad = [
        b"NOPE" + b"\x00" * 40,  # bad magic
        raw[:-1],  # body shorter than N*F symbols
        raw + b"\x00" * 4,  # body longer than N*F symbols
        raw[:6] + b"\x02" + raw[7:],  # mode tag outside {0, 1}
        raw[:32] + (100).to_bytes(4, "little") + raw[36:],  # GF(7) symbol 100
        raw[:24] + (8).to_bytes(8, "little") + raw[32:],  # composite modulus
        raw[:24] + ((1 << 61) - 1).to_bytes(8, "little") + raw[32:],  # 64-bit prime
    ]
    path = tmp_path / "bad.bin"
    for data in bad:
        path.write_bytes(data)
        with pytest.raises(InconsistentInputs):
            load_library(path)
