"""Bitwise golden digests: the state after three full cycles from fixed random starts.

The solver uses only + - * / sqrt max abs, so these digests do not depend on
libm or on the SIMD build.  A change that claims to keep behaviour must leave
every digest as it is; a digest is never regenerated to make a refactor pass.
The 64^3 double-precision case spans several cache blocks of the fluid sweep
and both slabs, and the 64x16x32 case has unequal axes in every orientation.
"""

import hashlib

import pytest

from tvdmhd import GridShape, SchemeParams, run

from conftest import random_state, state_bytes

SEED = 7
CYCLES = 3

GOLDEN = [
    ((16, 16, 16), "double", 1,
     "e34cb21e72c4e1feba76791bff14cef9040049247ad15ddcfc8c9a45aedb7309"),
    ((32, 32, 32), "single", 2,
     "a2778875735157484e6aa945f46a8dae13d0fb09da106d981936ad1ab2499d67"),
    ((32, 32, 32), "double", 2,
     "101d33af80f8640735694cb161716ba0f9cbb3c3b3b994835ba102894d95f285"),
    ((64, 64, 64), "double", 2,
     "045f6cbcd20bf780dfa77c4ee022aea62c2070b03ba71c0068d3700d33100f95"),
    ((64, 16, 32), "single", 2,
     "3679d6ffba434318e86187c3f93103c4a056fc2c06febcedb8ac8cbe4f81cdfb"),
]


@pytest.mark.parametrize("dims, precision, workers, digest", GOLDEN,
                         ids=[f"{'x'.join(map(str, d))}-{p}-w{w}" for d, p, w, _ in GOLDEN])
def test_state_digest_after_three_cycles(dims, precision, workers, digest):
    params = SchemeParams(precision=precision)
    state = random_state(GridShape(*dims), params, seed=SEED)
    run(state, params, n_cycles=CYCLES, workers=workers)
    assert hashlib.sha256(state_bytes(state)).hexdigest() == digest
