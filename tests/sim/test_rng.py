"""``randbelow`` draws exactly what ``random.Random`` draws.

The traffic sources and the hop sequences draw through
:func:`repro.sim.rng.randbelow` instead of ``randint`` / ``randrange``; the
golden fixtures stay byte-identical only while the two agree draw for
draw.  CPython's ``Random._randbelow_with_getrandbits`` is an
implementation detail, so a future interpreter that changes it fails here
first, loudly, rather than as a golden mismatch.
"""

import random

import pytest

from repro.sim.rng import randbelow

BOUNDS = (1, 2, 3, 4, 7, 8, 79, 100, 128, 1024, 1500)
SEEDS = range(50)
DRAWS = 200


@pytest.mark.parametrize("n", BOUNDS)
def test_randbelow_matches_randrange_draw_for_draw(n):
    for seed in SEEDS:
        reference = random.Random(seed)
        candidate = random.Random(seed)
        expected = [reference.randrange(n) for _ in range(DRAWS)]
        got = [randbelow(candidate.getrandbits, n) for _ in range(DRAWS)]
        assert got == expected, f"seed {seed}, n {n}"
        # the streams are left in the same state, too
        assert candidate.getstate() == reference.getstate()


@pytest.mark.parametrize("n", BOUNDS)
def test_randbelow_matches_randint_draw_for_draw(n):
    low = 144
    for seed in SEEDS:
        reference = random.Random(seed)
        candidate = random.Random(seed)
        expected = [reference.randint(low, low + n - 1) for _ in range(DRAWS)]
        got = [low + randbelow(candidate.getrandbits, n)
               for _ in range(DRAWS)]
        assert got == expected, f"seed {seed}, n {n}"
        assert candidate.getstate() == reference.getstate()


@pytest.mark.parametrize("n", (0, -1))
def test_randbelow_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="empty range"):
        randbelow(random.Random(0).getrandbits, n)
