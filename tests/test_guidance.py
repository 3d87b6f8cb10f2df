import numpy as np
import pytest

from visemefit.errors import DataError
from visemefit.guidance import guidance_sets, top_k


def brute_sets(weights, frame, m, n, radius, eps):
    """Straight-from-the-definition reference used to cross-check the module."""
    frames, v = weights.shape

    # ties broken toward the lower index, entries below eps dropped
    def topk_strict(row, k):
        order = sorted(range(v), key=lambda i: (-row[i], i))
        out = []
        for i in order:
            if row[i] >= eps:
                out.append(i)
            if len(out) == k:
                break
        return out

    act = set(topk_strict(weights[frame], n))
    lo, hi = max(0, frame - radius), min(frames - 1, frame + radius)
    scheduled = set()
    for j in range(lo, hi + 1):
        scheduled |= set(topk_strict(weights[j], m))
    sup = set(range(v)) - scheduled
    return sup, act


def test_top_k_hand_case():
    vals = [0.1, 0.9, 0.4, 0.9, 0.0]
    assert top_k(vals, 2, 0.0) == [1, 3]  # tie goes to the lower index
    assert top_k(vals, 3, 0.0) == [1, 3, 2]
    assert top_k(vals, 3, 0.5) == [1, 3]  # entries under eps drop out
    assert top_k(vals, 0, 0.0) == []
    assert top_k([0.0, 0.0], 2, 0.01) == []


def test_guidance_hand_case():
    w = np.array(
        [
            [0.9, 0.0, 0.1, 0.0],
            [0.8, 0.3, 0.0, 0.0],
            [0.0, 0.7, 0.0, 0.05],
        ]
    )
    s = guidance_sets(w, frame=1, m=2, n=1, radius=1, eps_act=0.01)
    assert s.activate == {0}
    # top-2 over frames 0..2: {0,2} | {0,1} | {1,3} leaves nothing suppressed
    assert s.suppress == set()
    s0 = guidance_sets(w, frame=0, m=2, n=1, radius=0, eps_act=0.01)
    assert s0.activate == {0}
    assert s0.suppress == {1, 3}


def test_activate_is_subset_of_scheduled(rng):
    for _ in range(100):
        w = rng.uniform(0, 1, (6, 16))
        j = int(rng.integers(0, 6))
        s = guidance_sets(w, j, m=3, n=2, radius=2, eps_act=0.01)
        assert s.activate.isdisjoint(s.suppress)


def test_brute_force_equivalence_small_sweep(rng):
    # the full 1000-curve sweep lives in the acceptance suite; keep a quick
    # version here for day-to-day runs
    for _ in range(60):
        frames = int(rng.integers(1, 7))
        w = np.round(rng.uniform(0, 1, (frames, 16)), 2)  # rounding forces ties
        j = int(rng.integers(0, frames))
        radius = int(rng.integers(0, 3))
        s = guidance_sets(w, j, m=3, n=2, radius=radius, eps_act=0.01)
        sup, act = brute_sets(w, j, 3, 2, radius, 0.01)
        assert s.activate == act
        assert s.suppress == sup


def test_guidance_validation():
    w = np.zeros((3, 4))
    with pytest.raises(DataError):
        guidance_sets(w, 3, m=3, n=2, radius=1, eps_act=0.01)
    with pytest.raises(DataError):
        guidance_sets(np.zeros(4), 0, m=3, n=2, radius=0, eps_act=0.01)
