"""Generated keys as arrays, pinned independently of their wire bytes.

The wire digests elsewhere (``tests/pir/test_roundtrip.py``,
``tests/pir/test_batched_keygen.py``) move whenever the record layout
does.  These digests cover only what :meth:`KeyArena.generate` puts in
the arrays and how far it advances the generator, so a change of
serialization must leave them untouched: if one of these fails, the keys
themselves changed, not their encoding.
"""

import hashlib

import numpy as np
import pytest

from repro.crypto import available_prfs, get_prf
from repro.gpu import KeyArena

ARRAY_CASES = (
    # (domain, keys, seed)
    (1, 2, 31),
    (5, 3, 32),
    (1000, 7, 33),
    (1024, 8, 34),
    (65536, 4, 35),
)

ARRAY_FIELDS = ("roots", "cw_seeds", "cw_t_left", "cw_t_right", "output_cws")

ARRAY_DIGESTS = {
    "aes128": (
        "bcfb101a45544d92579986386158113fc419a46c03c4b3a067870eec3d03f820",
        "dd5775c3ae89487404b673b3b07188bf2f165d52a543652a10f8c3aedb9bba87",
        "c3c1be170285ff46b19c9e4946f3ea1b6aeabec257b144ce55a1a8d06afbd302",
        "1523a4103d44f875b8a5692bdf0f4d0ac9812925f888b5fa6c168873f8543886",
        "ff594b63aa59f3bc23047dff2dea990af45e5819668c3ce7ac098c79907d2aaf",
    ),
    "chacha20": (
        "bcfb101a45544d92579986386158113fc419a46c03c4b3a067870eec3d03f820",
        "850b1e0ec251e0b464031dd077cb2f842c56e8744c643ddea52574a67c7d2d8b",
        "72a36b9d5a202e44788599db584543a262f198ea19eba45450455e137a9aa84d",
        "2bb3d3536874dd97498bc053738639cbc141df77d82effae894011418374f4c2",
        "3fb3b82657f496a12757879fc76da1e4b2f3dfcd1355dd40af2b00dd49edf138",
    ),
    "highwayhash": (
        "bcfb101a45544d92579986386158113fc419a46c03c4b3a067870eec3d03f820",
        "b554b1339c1543f8b9da1ffa4e4f6c596c177d3082d648984b65463879cb9d70",
        "9f98e7b0d3d4258216e4d5e578f1de8231aad97578445d8c69a93b027280fe7c",
        "9ccd15370701552bbbfcb22722b29c07f2d0753680d0800caa684823477bac29",
        "065d5da0a6100a50f6ccc8162e2fce65cb95a295fb344a55eb1e97e009e0b13b",
    ),
    "sha256": (
        "bcfb101a45544d92579986386158113fc419a46c03c4b3a067870eec3d03f820",
        "a46fdf9cbbbe9dbedbd0d325471006945a448ee06c652353f9a95d5767a29b1f",
        "450146b3fb4cc0854c4077423a1966627f7f494676cf8e27957a85331f5ca6a1",
        "1befdde9e389da2c553830082a5a051064861128f780fec78c2b9f49326d5704",
        "1a0d17d15aa358d288aff11c08b441833592491864e38bc64ba397f57f5b8e48",
    ),
    "siphash": (
        "bcfb101a45544d92579986386158113fc419a46c03c4b3a067870eec3d03f820",
        "4fb24a332e878c41a44294b98018c1f554426dade08604220848b154d2a85bf8",
        "99e0d575c596cc2b6a44400da4a4552c888cdff1f38512f7b3c09690d05c3e85",
        "c111cd52cbc88301fd22ee5f4dce24e2f475a4580405e2f4c8713a1418eeaa21",
        "94a84cc2e7b5527ed2d0e6b369d9edb7b291ba2e9a8d11bb45cb666af955ff08",
    ),
}
"""``_array_digest`` of each :data:`ARRAY_CASES` row, recorded at commit
ec20625, the last one whose records were ``DPF2``.  The one-row table
walks no level, so its arrays are the same for every PRF."""


def _array_digest(prf_name, domain, keys, seed):
    """SHA-256 over both parties' key arrays (dtype, shape, bytes), then
    16 more bytes of the generator, so its position is pinned too."""
    rng = np.random.default_rng(seed)
    alphas = rng.integers(0, domain, size=keys)
    digest = hashlib.sha256()
    for arena in KeyArena.generate(alphas, domain, get_prf(prf_name), rng):
        for field in ARRAY_FIELDS:
            array = np.ascontiguousarray(getattr(arena, field))
            digest.update(f"{field}:{array.dtype.str}:{array.shape}".encode())
            digest.update(array.tobytes())
    digest.update(rng.bytes(16))
    return digest.hexdigest()


@pytest.mark.parametrize("name", available_prfs())
def test_generated_arrays_match_the_recorded_digests(name):
    got = tuple(_array_digest(name, *case) for case in ARRAY_CASES)
    assert got == ARRAY_DIGESTS[name]
