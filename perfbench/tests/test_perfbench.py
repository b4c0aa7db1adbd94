"""Tests of the benchmark's own code.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run as bench
import tracer as tracing
import workloads
from kpusim import Codec, assemble, frontend, pipeline, write_image
from kpusim.frontend import DEFAULT_KEY

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _images(jobs):
    cdc = Codec(DEFAULT_KEY)
    return [write_image(assemble(job.source, cdc, seed=job.asm_seed))
            for job in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, monkeypatch):
    monkeypatch.setitem(workloads.GENERATORS, "equiv_campaign",
                        lambda seed, root: workloads.equiv_campaign(
                            seed, root, programs=3))
    first = workloads.generate(workload, 5, ROOT)
    assert first == workloads.generate(workload, 5, ROOT)
    assert _images(first) == _images(workloads.generate(workload, 5, ROOT))
    assert _images(first) != _images(workloads.generate(workload, 6, ROOT))


def _check(job, tmp_path):
    with harness.engine_probe() as engines:
        return harness.check_image(job, tmp_path, "0:0", engines)


def test_is_add_long_anchor_and_cache_hits(tmp_path):
    job, = workloads.generate("is_add_long", 0, ROOT)
    result = _check(job, tmp_path)
    assert result.ok, result.reason
    assert result.counters["sim_cycles"] == 72053
    assert result.counters["sim_instructions"] == 48020
    assert result.counters["dcache_read_misses"] == 0
    assert result.counters["dcache_read_hits"] == 2000


def test_mem_sweep_misses_the_data_cache(tmp_path):
    job, = workloads.generate("mem_sweep", 0, ROOT)
    result = _check(job, tmp_path)
    assert result.ok, result.reason
    reads = (result.counters["dcache_read_hits"]
             + result.counters["dcache_read_misses"])
    assert reads == workloads.SWEEP_CELLS * workloads.SWEEP_PASSES
    assert result.counters["dcache_read_hits"] <= 0.01 * reads
    assert result.counters["tlb_entries"] == workloads.SWEEP_CELLS


def _small_sweep():
    return workloads.Job("sweep", workloads.mem_sweep_source(1, 8, 2), 1)


def test_corrupted_dump_is_counted_as_a_failure(tmp_path, monkeypatch):
    render = frontend.render_dump

    def corrupted(view):
        lines = render(view).splitlines()
        lines[2] = "REG 00 0000000000000001 0000000000000001"
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(frontend, "render_dump", corrupted)
    with harness.engine_probe() as engines:
        rep = harness.run_rep([_small_sweep(), _small_sweep()], tmp_path,
                              engines)
    assert rep.failed == 2
    assert "MISMATCHES" in rep.images[0].reason


def test_unreadable_dump_is_counted_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(frontend, "render_dump", lambda view: "garbage\n")
    result = _check(_small_sweep(), tmp_path)
    assert not result.ok
    assert "kpu compare exited 2" in result.reason


def test_tracer_restores_the_program_and_keeps_counters(tmp_path):
    plain = _check(_small_sweep(), tmp_path)
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    with tracer.installed(), harness.engine_probe() as engines:
        assert pipeline.Engine.step is not originals[(pipeline.Engine, "step")]
        traced = harness.check_image(_small_sweep(), tmp_path, "0:0", engines,
                                     tracer)
    assert all(vars(owner)[attr] is fn
               for (owner, attr), fn in originals.items())
    assert traced.ok and traced.counters == plain.counters
    snap = tracer.take()
    assert snap["pipeline.step"][0] == plain.counters["sim_cycles"]
    assert snap["frontend.command"][0] == 4
    assert tracer.missing == []


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_outputs_match_benchmark_json(tmp_path, monkeypatch):
    spec = _benchmark_json()
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    monkeypatch.setitem(workloads.GENERATORS, "tiny",
                        lambda seed, root: [_small_sweep()])
    lines = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run("tiny", 1, 0, trace, out=lines.append)
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[section]}
    assert any("self time per module" in line for line in lines)
    assert (tmp_path / "trace-tiny-1.json").is_file()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable] + _benchmark_json()["command"][1:]
        + ["--workload", "mem_sweep", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_sampler_leaves_slices_out_and_restores_the_handler():
    import signal
    import time

    import speed
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    with sampler.running():
        mark = sampler.mark()
        wall, clock = time.perf_counter(), sampler.now()
        while time.perf_counter() - wall < 0.3:
            pass
        wall, clock = time.perf_counter() - wall, sampler.now() - clock
    assert sampler.slices - mark[1] >= 3
    assert clock < wall - (sampler.slice_s - mark[0]) / 2
    assert sampler.factor(mark) > 0
    assert signal.getsignal(signal.SIGALRM) is before
