"""Smoke test of the benchmark at a few hundred packets.

Checks the output format and the correctness checks; it gates no
wall-clock figure. Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema_and_checks(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace, "--packets", "400")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]

    full = json.loads((BENCH / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert all(full["checks"].values())
    prov = full["provenance"]
    assert prov["seed"] == 3 and prov["held_out_seed"] != 3
    assert prov["packets_per_pass"] == 400
    # One host-speed reference before the warm-up pass and one after every pass.
    assert len(prov["reference_ms"]) == 2 + prov["passes"] + prov["traced_passes"]
    assert all(t > 0 for t in prov["reference_ms"])
    digests = [k for k in prov if k.endswith("_sha256")]
    assert digests and all(len(prov[k]) == 64 for k in digests)


def test_same_seed_same_outputs() -> None:
    workload = "atpc_orthonormal_swell_ge"
    digests = []
    for _ in range(2):
        proc = _run(ROOT, workload, 0, "--packets", "300")
        assert proc.returncode == 0, proc.stderr
        prov = json.loads((BENCH / "out" / f"{workload}-seed3-trace0.json").read_text())
        digests.append(prov["provenance"]["loop_transcript_sha256"])
    assert digests[0] == digests[1]


def test_fails_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
