"""Tests of the benchmark itself, at small op sizes.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, run, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    out = run.run_benchmark(workload, seed=3, seconds=0.0, trace=trace, small=True,
                            setup_samples=1, out_dir=tmp_path / "work")
    result = out["result"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= len(workloads.CYCLES[workload])
    if workload != "mc-verify":  # small photon counts may or may not close
        assert result["failed"] == 0
    json.dumps(result, allow_nan=False)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _executed(workload, index, tmp_path):
    op = workloads.make_op(workload, 5, index, small=True)
    result = workloads.execute(op, tmp_path)
    assert result.exit_code == 0
    return result


def _corrupt(path: Path, row: int, column: int) -> None:
    lines = path.read_text().splitlines()
    data = [k for k, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cell = cells[column]
    cells[column] = str(int(cell) + 1) if cell.isdigit() else repr(float(cell) + 1e-6)
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,index,column,check", [
    ("fringe-scan", 0, 3, "port_sum"),        # p_out1 of a fringe table
    ("fringe-scan", 1, 6, "analyzer_sum"),    # p_apd11 of an erasure table
    ("duality-sweep", 0, 6, "closed_form"),   # V of a sweep row
    ("mc-verify", 2, 1, "count_sum"),         # n_plus of a tomography row
])
def test_corrupted_csv_is_a_failed_op(workload, index, column, check, tmp_path):
    result = _executed(workload, index, tmp_path)
    _corrupt(result.outputs[0], 0, column)
    checks.check(result)
    assert check in result.failures
    assert not result.ok


def test_truncated_csv_is_a_failed_op(tmp_path):
    result = _executed("duality-sweep", 3, tmp_path)
    path = result.outputs[0]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-3]))
    checks.check(result)
    assert result.failures == ["row_count"] and not result.ok


def test_nonzero_exit_and_bad_output_count_as_failed(tmp_path, monkeypatch):
    make_op, execute = workloads.make_op, workloads.execute

    def broken_op(workload, seed, index, small=False):
        op = make_op(workload, seed, index, small)
        if index == 1:  # the CLI refuses this argv with exit 2
            return workloads.Op(op.workload, op.index, op.kind,
                                op.argv + ("--visibility-scale=2",), op.params)
        return op

    def corrupting_execute(op, out_dir):
        result = execute(op, out_dir)
        if op.index == 2:
            _corrupt(result.outputs[0], 1, 6)
        return result

    monkeypatch.setattr(workloads, "make_op", broken_op)
    monkeypatch.setattr(workloads, "execute", corrupting_execute)
    out = run.run_benchmark("duality-sweep", seed=4, seconds=0.0, trace=0, small=True,
                            setup_samples=1, out_dir=tmp_path / "work")
    result = out["result"]
    assert result["attempted"] == 4 and result["failed"] == 2
    assert result["correct"] is False  # op 2 exited 0 with a wrong table
    reasons = {f["op"]: f for f in out["meta"]["failures"]}
    assert reasons[1]["exit"] == 2 and "category=config" in reasons[1]["reason"]
    assert reasons[2]["exit"] == 0 and "closed_form" in reasons[2]["reason"]


def _argvs(seed, count=16):
    return {w: [list(op.argv) for op in workloads.make_ops(w, seed, 0, count)]
            for w in workloads.WORKLOADS}


def test_argv_depends_only_on_the_seed():
    first = _argvs(7)
    assert first == _argvs(7)
    assert all(first[w] != other for w, other in _argvs(8).items() if w != "purify")
    # op i is the same whether generated alone or in a batch
    for w in workloads.WORKLOADS:
        assert list(workloads.make_op(w, 7, 5).argv) == first[w][5]
    purify_a = workloads.make_op("purify", 7, 0).params
    purify_b = workloads.make_op("purify", 7, 0).params
    assert purify_a["stokes"] == purify_b["stokes"]
    assert purify_a["stokes"] != workloads.make_op("purify", 8, 0).params["stokes"]
    # and in another interpreter with another hash seed
    code = ("import json; from perfbench.test_perfbench import _argvs; "
            "print(json.dumps(_argvs(7)))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join([str(run.SRC), str(run.ROOT)]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == first


def test_checkout_without_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "purify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
