"""Byte-level pins of the delivery tables and the GF receptions.

The digests were taken from the two-builder implementation that both
antenna regimes used before they shared one row plan; any change to the
rendered text or to a received symbol shows up here.
"""

import hashlib

import numpy as np

from mscache import (
    DemandVector,
    LibraryConfig,
    PrimeField,
    build_schedule,
    draw_channel,
    is_supported,
    random_library,
    receive,
    render_delivery_table,
)

GF = PrimeField(65537)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _permuted(N: int) -> DemandVector:
    return DemandVector(np.random.default_rng(100 + N).permutation(N))


# sha256(table at the identity demand + table at _permuted(N)), per (N, L).
TABLE_DIGESTS = {
    (2, 1): "aafc520938e88c101e98509cc69116cca9910456e37ea353c5af750ec2dc8f7c",
    (3, 1): "c274f9b4d8605c5901f9b45061925984f2b1352a11709612133bcb0e652cb536",
    (3, 2): "d84b531033a05ea0384b8ae7dd8d40002768b8fc05006d7df6879cc79a47c877",
    (4, 1): "b538cf201e00f6483b53740adb6bc9ddf1a9a91e81c05a25abf742dbb8be7c50",
    (4, 2): "55f377de7a7523de138de043b200fb6a5672c5c31d149a6cb400c24f0524a3fe",
    (4, 3): "c00bb16cc7cca6273644787fcf82af5be689b8f7423672adc650f61ec1251339",
    (5, 1): "da8233f50f7f2edd07b8d300539ff6d3fd8e39aacf9201859e702dff05afcfe0",
    (5, 2): "51895dbfba86478b76cd89ff634c0e844091a81d175454a50efbc68b0e6267d8",
    (5, 3): "55857bc9101e12b63df449498827487f9a9cea165bd2cf1f7f4579e0a17e9f8c",
    (5, 4): "f1d3b2e886ce0007446dab58c5debb9b1c2006d23bed887bfd4da46a1d001565",
    (6, 1): "1bae6fbe5d09ab4a8a76e754b7eb3e860f9c51a9299a3f85d6c3d9b390113999",
    (6, 2): "fc71054819785d2131ec66c42cde17fdcec2525814a84493338375a5546af386",
    (6, 4): "af62adcdc5e0f199b7b53ef8755e9ce543cb97a9ece69b41c5005bda8711ba37",
    (6, 5): "20dc61044a01ef4741033b94c5090ee98bfa3e7ae8d4f881df544245ccbeb673",
    (7, 1): "b1bbcb56bee477b7bd3c6a2835615876f81160d02a95661ade02d7a632c2e4c6",
    (7, 2): "c11631d92c7f653ae1492c4cb0186104ab8443948c2d0f7b5b65129a8de0b198",
    (7, 3): "7a13b4ca15cefe842bff6a9a7a1c548668947e82319739c03b833fa9325fc459",
    (7, 5): "16ca8235d6b7331d0da76c533f0e3f7aaac8f8ef0820f375b4110f8b066f617e",
    (7, 6): "6e4e81c56893618db11f79f7a0cd589468c582b74b01496117d868ac106a9b36",
    (8, 1): "11604961388979f968d798c4db0851569dcb3f8f72e6abfb4c620202ae905ea5",
    (8, 2): "6c086b5508e35c2f91bfa32cdd00920927c637b5bc2f032cb0f3af9e9a6e8a1e",
    (8, 3): "1f973e263851ade7380bf3dbfd03c1b1ed70bc1423a2dafff46323778a44d627",
    (8, 6): "ed6c50e515fe7301385ed60bac0230e8c7ea97b50fde09f60a451c6898515b1d",
    (8, 7): "c9214c3e6b62982046b12507ae13b22b7169498c853fe10cfbf9eecc15c22847",
    (9, 1): "e452a27d7e466cd671790665e3969a4b79a20406ac9fb05a2fe919179c4fc2a6",
    (9, 2): "6565577d8b25ec8a2cd9b85bda3294bc097c80df5659817054dc60e58e080e90",
    (9, 3): "b311b2f71385f7eac9dcc3998770f2c642505fb864c04f8a62575a2f8ad8f16f",
    (9, 4): "61f2b68210b316dbac1f0634cb9724dd472ec0b35c17573e7bbe99ed8c5906b9",
    (9, 7): "a7fddedc888fc73f6793edc6e63182c57e41b16265da91cfadd66f5732b4c112",
    (9, 8): "f0bc2e32af0570ad0c3b95f321e837cf01d19e7fb7d336d0cb9d10256cb34917",
}

# The same digests at N > 9, with even and odd telescoping L, taken while
# the telescoping coefficients came from Fraction inverses: they pin the
# closed form that replaced them.
LARGE_TABLE_DIGESTS = {
    (22, 10): "d0533f13373f9d6dc4c2cf48973b809200cbdae913bbcda8d8c03c8dc9e63051",
    (24, 11): "820688b4cb0c8fbc08f72bd6a8c77ef00c68af2353cac2e1eeb95121c581ef8a",
    (31, 14): "269006d08b5c6ac2e0bdd0d8d1c106716bda51accd4bff34ab7be6b4082be19e",
}

# sha256 of every block's K x tau GF reception, in schedule order.
RECEPTION_DIGESTS = {
    (2, 1): "2bcedba622b778378f91cb7e067e019de45cbf5c4fac0e2eee8aafb9181d4712",
    (3, 1): "ca06ae743c81c8698a02ec4f03198371ac6485845d9ac91f6a2abe74d64972b7",
    (4, 2): "511f1dd967dd586274d5940543d59591aaff36a42b369659475a672912ce578e",
    (4, 3): "8a26dc7e767f540bdf439b1158e3bc96f17e54d38ea127c2f47d47d63813506a",
    (5, 3): "d1a43ca78ade072a49cbbbbb4d9d27a64c93af44c1d40d8554c6f48761838851",
    (8, 3): "c1a87e0982251736169ca2fc2ce06369a99eb19146739c58fa60824b4246ebc5",
}


def table_digest(N: int, L: int) -> str:
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    tables = [render_delivery_table(cfg, d) for d in (DemandVector(range(N)), _permuted(N))]
    return _sha(*(t.encode() for t in tables))


def reception_digest(N: int, L: int) -> str:
    cfg = LibraryConfig(N=N, K=N, L=L, F=2 * N * L)
    lib = random_library(GF, N, cfg.F, seed=7 * N + L)
    H = draw_channel(N, L, seed=11 * N + L, field=GF)
    log = receive(H, build_schedule(_permuted(N), H, lib, cfg))
    return _sha(*(np.ascontiguousarray(y, dtype=np.int64).tobytes() for y in log.per_block))


def test_tables_pin_every_supported_pair():
    pairs = [(N, L) for N in range(2, 10) for L in range(1, N) if is_supported(N, L)]
    assert sorted(TABLE_DIGESTS) == pairs
    for N, L in pairs:
        assert table_digest(N, L) == TABLE_DIGESTS[(N, L)], f"(N={N}, L={L})"


def test_tables_pin_larger_pairs():
    for (N, L), want in LARGE_TABLE_DIGESTS.items():
        assert table_digest(N, L) == want, f"(N={N}, L={L})"


def test_receptions_pin_seeded_gf_runs():
    for (N, L), want in RECEPTION_DIGESTS.items():
        assert reception_digest(N, L) == want, f"(N={N}, L={L})"
