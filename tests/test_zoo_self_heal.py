"""The model zoo heals a corrupt artifact instead of crashing the run.

Trained zoo models persist as ``zoo`` artifacts of the shared
:class:`~repro.plan.cache.PlanArtifactCache`, so a truncated file is
quarantined to ``*.corrupt``, the dataset regenerated and the model
retrained — bitwise-equal, because both are seeded by the workload spec
— and the rerun's CSVs match the run before the damage.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.experiments.model_zoo as model_zoo
from repro.experiments.config import SMOKE
from repro.nn import Trainer
from repro.plan.cache import PlanArtifactCache

from .helpers import assert_same_split


def _truncate_zoo(cache_dir):
    (path,) = (cache_dir / "plan" / "v2").glob("zoo-*.npz")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return path


def test_truncated_zoo_artifact_quarantined_and_retrained_once(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    fits = []
    real_fit = Trainer.fit
    builds = []
    real_build_data = model_zoo.build_data

    def counting_build_data(*args, **kwargs):
        builds.append(1)
        return real_build_data(*args, **kwargs)

    monkeypatch.setattr(model_zoo, "build_data", counting_build_data)

    def counting_fit(self, *args, **kwargs):
        fits.append(1)
        return real_fit(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "fit", counting_fit)
    caches = []

    class RecordingCache(PlanArtifactCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(model_zoo, "PlanArtifactCache", RecordingCache)
    spec = SMOKE.workload("lenet-digits")

    first = model_zoo.load_workload(spec)
    assert len(fits) == 1
    path = _truncate_zoo(tmp_path)

    with pytest.warns(RuntimeWarning, match="corrupt"):
        second = model_zoo.load_workload(spec)
    assert os.path.exists(f"{path}.corrupt")
    assert caches[-1].stats()["quarantined"] == 1
    assert len(fits) == 2  # retrained exactly once
    assert len(builds) == 2  # ...on a regenerated dataset
    assert_same_split(first.data, second.data)
    assert second.clean_accuracy == first.clean_accuracy
    state_a = first.model.state_dict()
    state_b = second.model.state_dict()
    assert sorted(state_a) == sorted(state_b)
    for name in state_a:
        assert state_a[name].dtype == state_b[name].dtype
        assert np.array_equal(state_a[name], state_b[name])

    third = model_zoo.load_workload(spec)
    assert len(fits) == 2  # the healed artifact serves the next load
    assert len(builds) == 2
    assert_same_split(first.data, third.data)
    assert third.clean_accuracy == first.clean_accuracy


@pytest.mark.slow
def test_runner_survives_truncated_zoo_with_identical_csvs(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = (
        os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["REPRO_CACHE_DIR"] = str(cache)

    def run(results):
        env["REPRO_RESULTS_DIR"] = str(results)
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "table1",
             "--scale", "smoke"],
            env=env, capture_output=True, text=True, timeout=900,
        )

    before = run(tmp_path / "before")
    assert before.returncode == 0, before.stderr[-2000:]
    _truncate_zoo(cache)
    after = run(tmp_path / "after")
    assert after.returncode == 0, after.stderr[-2000:]
    assert "quarantined" in after.stderr
    names = sorted(p.name for p in (tmp_path / "before").glob("*.csv"))
    assert names
    for name in names:
        assert (tmp_path / "after" / name).read_bytes() == (
            tmp_path / "before" / name
        ).read_bytes()
