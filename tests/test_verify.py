import numpy as np
import pytest

from circleclone import nosignalling
from circleclone.verify import RunConfig, check_bound_soundness


class TestRunConfig:
    @pytest.mark.parametrize("settings", [
        {"psd_tol": float("nan")},
        {"psd_tol": float("inf")},
        {"psd_tol": -1e-9},
        {"radius_tol": float("nan")},
        {"radius_tol": 0.0},
        {"budget": 0},
        {"budget": 2.5},
        {"samples": 1},
        {"samples": -3},
        {"samples": 2.5},
    ], ids=lambda settings: ",".join(f"{key}={value}" for key, value in settings.items()))
    def test_rejects_what_the_cli_rejects(self, settings):
        with pytest.raises(ValueError):
            RunConfig(**settings)

    def test_accepts_valid_settings(self):
        RunConfig(psd_tol=1e-6, radius_tol=1e-2, budget=np.int64(10), samples=2)
        RunConfig(samples=0)


class TestBoundSoundness:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_samples_reach_the_tight_region(self, seed):
        result = check_bound_soundness(RunConfig(), np.random.default_rng(seed))
        assert result.passed
        assert -1e-6 <= result.measured <= 1e-8

    def test_fails_for_a_bound_tighter_than_the_truth(self, monkeypatch):
        true_rhs = nosignalling.bound_rhs
        monkeypatch.setattr(nosignalling, "bound_rhs", lambda t: true_rhs(t) - 1e-7)
        assert not check_bound_soundness(RunConfig(), np.random.default_rng(0)).passed
