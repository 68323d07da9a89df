import importlib.util
import json
from pathlib import Path


def _load(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_t_stages_times_every_stage_of_every_a3_t(tmp_path):
    stages = _load("t_stages")
    out = tmp_path / "stages.json"
    assert stages.main(["--type", "A3", "--passes", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["type"] == "A3" and report["passes"] == 1
    assert report["t_indices"] == list(range(14))
    assert list(report["ms_per_t"]) == list(stages.STAGES)
    for stage in stages.STAGES:
        ms = report["ms_per_t"][stage]
        assert len(ms["passes"]) == 1 and ms["median"] == ms["passes"][0] > 0, stage
