"""Smoke tests: every figure driver runs at tiny scale and yields the
columns EXPERIMENTS.md documents."""

import pytest

from repro.bench.figures import FIGURES

TINY = 0.008

EXPECTED_COLUMNS = {
    "fig16b": {"pattern", "vf2_s", "match_k1_s", "match_k3_s"},
    "fig16c": {"pattern", "vf2_matches", "match_k1_matches", "match_k3_matches"},
    "fig17a": {"pattern", "matrix_s", "twohop_s", "bfs_s"},
    "fig17b": {"pattern", "matrix_s", "twohop_s", "bfs_s"},
    "fig17c": {"pattern_size", "k", "bfs_match_s"},
    "fig17d": {"num_nodes", "p1_s", "p2_s"},
    "fig18a": {
        "update_fraction",
        "num_updates",
        "batch_s",
        "incmatch_s",
        "incmatch_naive_s",
        "hornsat_s",
    },
    "fig19a": {
        "update_fraction",
        "num_updates",
        "batch_bs_s",
        "incbmatch_s",
        "incbmatch_m_s",
    },
    "fig20a": {
        "alpha",
        "original_updates",
        "reduced_updates",
        "reduction_pct",
    },
    "fig20b": {
        "inserted_edges",
        "inslm_entries",
        "inslm_landmarks",
        "batchlm_entries",
        "batchlm_landmarks",
    },
    "fig20c": {
        "num_updates",
        "inslm_s",
        "batchlm_plus_s",
        "dellm_s",
        "batchlm_minus_s",
    },
    "fig20d": {"num_updates", "inclm_s", "batchlm_s"},
    "fig20e": {"k", "inclm_s"},
    "fig20f": {"num_updates", "inclm_s", "ins_del_lm_s"},
}


def test_all_twenty_figures_registered():
    assert len(FIGURES) == 20
    for fig in ("16b", "16c", "17a", "17b", "17c", "17d",
                "18a", "18b", "18c", "18d",
                "19a", "19b", "19c", "19d",
                "20a", "20b", "20c", "20d", "20e", "20f"):
        assert f"fig{fig}" in FIGURES


@pytest.mark.parametrize("name", sorted(EXPECTED_COLUMNS))
def test_driver_produces_expected_columns(name):
    rows = FIGURES[name](TINY)
    assert rows, f"{name} returned no rows"
    assert set(rows[0]) == EXPECTED_COLUMNS[name]


@pytest.mark.parametrize(
    "name", ["fig18b", "fig18c", "fig18d", "fig19b", "fig19c", "fig19d"]
)
def test_sibling_figures_share_columns(name):
    rows = FIGURES[name](TINY)
    assert rows
    base = "fig18a" if name.startswith("fig18") else "fig19a"
    assert set(rows[0]) == EXPECTED_COLUMNS[base]


def test_fig20a_reduction_is_real():
    rows = FIGURES["fig20a"](TINY)
    assert all(r["reduced_updates"] <= r["original_updates"] for r in rows)


def test_fig16c_bounded_finds_at_least_simulation():
    rows = FIGURES["fig16c"](TINY)
    assert all(r["match_k3_matches"] >= 0 for r in rows)


def test_cli_list_and_single_figure(capsys):
    from repro.bench.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig18a" in out
    assert main(["--figure", "fig20a", "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out
    assert main(["--figure", "nope"]) == 2


@pytest.fixture(scope="module")
def tiny_bench_pool(tmp_path_factory):
    """One tiny ``bench_pool.py`` run shared by the tests below: its exit
    code and the ``BENCH_pool.json`` document it wrote."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_pool.py"
    out = tmp_path_factory.mktemp("bench") / "BENCH_pool.json"
    proc = subprocess.run(
        [
            sys.executable, str(script), "--tiny",
            "--updates", "8", "--cluster-size", "6", "--reps", "1",
            "--json", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    doc = json.loads(out.read_text()) if out.exists() else None
    return proc, doc


def test_bench_pool_tiny_emits_machine_readable_json(tiny_bench_pool):
    """CI uploads BENCH_pool.json; pin its shape and the routing headline
    (non-owning bounded queries decline the partitioned stream, so the
    routed count must not grow with pool size)."""
    proc, doc = tiny_bench_pool
    assert proc.returncode == 0, proc.stderr
    assert set(doc["scenarios"]) == {
        "simulation", "bounded", "bounded-shared", "overlap-atoms",
        "shared-plan", "reach-oracle", "kernels", "temporal",
    }
    for name in ("simulation", "bounded"):
        scenario = doc["scenarios"][name]
        assert scenario["results"]
        for row in scenario["results"]:
            assert {"n", "pool_ms", "naive_ms", "routed", "skipped"} <= set(row)
        routed = [r["routed"] for r in scenario["results"]]
        assert len(set(routed)) == 1, (name, routed)
    # Distance routing's headline: leg probes + oracle consults per flush
    # are EXACTLY flat in N and nonzero (hard-gated by the scenario);
    # the growth race only fires at full scale, so here it is ungated.
    bounded = doc["scenarios"]["bounded"]
    assert bounded["route_work_flat"] is True
    assert bounded["growth_ok"] is None
    work = {r["route_work_per_flush"] for r in bounded["results"]}
    assert len(work) == 1 and work.pop() > 0
    shared = doc["scenarios"]["bounded-shared"]
    assert shared["results"]
    for row in shared["results"]:
        assert {
            "n", "shared_ms", "naive_ms",
            "shared_upkeep", "naive_upkeep",
        } <= set(row)
    # The substrate's headline: the naive baseline's private structure
    # upkeep grows with N, the shared substrate's does not.
    shared_upkeep = [r["shared_upkeep"] for r in shared["results"]]
    naive_upkeep = [r["naive_upkeep"] for r in shared["results"]]
    assert len(set(shared_upkeep)) == 1, shared_upkeep
    assert naive_upkeep == sorted(naive_upkeep)
    assert naive_upkeep[-1] > naive_upkeep[0]
    # The atom tier's headline: per-flush atom evaluations are EXACTLY
    # flat in N over the fixed atom vocabulary (the scenario itself
    # enforces it — exit code 0 above — but pin the JSON shape too).
    atoms = doc["scenarios"]["overlap-atoms"]
    assert atoms["results"]
    for row in atoms["results"]:
        assert {
            "n", "conjunctions", "shared_ms", "naive_ms",
            "shared_atom_evals", "naive_atom_evals",
        } <= set(row)
    assert atoms["shared_exactly_flat"] is True
    shared_atom_evals = [r["shared_atom_evals"] for r in atoms["results"]]
    assert len(set(shared_atom_evals)) == 1, shared_atom_evals
    naive_atom_evals = [r["naive_atom_evals"] for r in atoms["results"]]
    assert naive_atom_evals[-1] > naive_atom_evals[0]
    # The substrate's own counter measures the same path: nonzero and
    # flat in N.
    substrate_evals = {
        r["shared_substrate_atom_evals"] for r in atoms["results"]
    }
    assert len(substrate_evals) == 1 and substrate_evals.pop() > 0
    # The multi-query plan's headline: per-flush view repairs are
    # EXACTLY flat in query count once the leg vocabulary is interned
    # (hard-gated by the scenario — exit code 0 above); the N=16
    # outright-win race only fires at full scale, so at tiny scale it
    # must be reported ungated (None), never a fired-and-failed False.
    plan = doc["scenarios"]["shared-plan"]
    assert plan["results"]
    for row in plan["results"]:
        assert {
            "n", "plan_shared_ms", "plan_per_query_ms",
            "view_repairs", "plan_views", "plan_joins",
        } <= set(row)
    assert plan["view_repairs_flat"] is True
    assert plan["shared_wins"] is not False
    k = plan["leg_vocabularies"]
    plan_repairs = [
        r["view_repairs"] for r in plan["results"] if r["n"] >= k
    ]
    assert len(set(plan_repairs)) == 1, plan_repairs
    # The interval oracle's headline: the columnar backend wins the
    # flush race and consults stay sublinear in the eligible population
    # (both hard-gated by the scenario — exit code 0 above — so here we
    # pin the JSON shape and the gate verdicts).
    reach = doc["scenarios"]["reach-oracle"]
    assert reach["results"]
    for row in reach["results"]:
        assert {
            "n", "dict_ms", "columnar_ms", "dict_over_columnar",
            "landmark_ms", "consults", "rebuilds", "eligible_members",
            "consults_per_update",
        } <= set(row)
        assert row["consults"] > 0
    # At this tiny scale every dict flush is sub-millisecond, so the
    # backend race is reported ungated (None); the full run hard-gates
    # a True verdict.  False would mean the gate fired and failed.
    assert reach["columnar_wins"] is not False
    assert reach["consults_sublinear"] is True
    # The kernel layer's headline: numpy beats the pure-Python twins on
    # the bulk sweep and interval rebuild (hard-gated at full scale; at
    # tiny scale the race is reported ungated, and without numpy the
    # scenario documents itself as skipped).
    kern = doc["scenarios"]["kernels"]
    if "skipped" not in kern:
        assert kern["results"]
        for row in kern["results"]:
            assert {
                "n", "edges", "bulk_numpy_ms", "bulk_python_ms",
                "interval_numpy_ms", "interval_python_ms",
            } <= set(row)
        assert kern["numpy_wins_bulk"] is not False
        assert kern["numpy_wins_interval"] is not False
    # The temporal pool's headline: retiring a whole window of expired
    # edges in one coalesced deletion batch beats deleting them one
    # flush at a time, windowed steady-state upkeep is EXACTLY flat in
    # standing-query count over the fixed pattern vocabulary, and bulk
    # expiry triggers ZERO full-structure rebuilds (the latter two are
    # deterministic counter gates, hard even at tiny scale; the timing
    # race is floor-gated, so tiny scale may report it ungated — None —
    # but never a fired-and-failed False).
    temporal = doc["scenarios"]["temporal"]
    assert temporal["results"]
    for row in temporal["results"]:
        assert {
            "n", "expiry_bulk_ms", "expiry_per_edge_ms", "windowed_ms",
            "expired", "structure_batches", "rebuild_delta",
            "per_edge_over_bulk",
        } <= set(row)
        assert row["rebuild_delta"] == 0
    assert temporal["bulk_expiry_wins"] is not False
    assert temporal["upkeep_flat"] is True
    assert temporal["zero_expiry_rebuilds"] is True
    batches = [
        r["structure_batches"] for r in temporal["results"] if r["n"] >= 4
    ]
    assert len(set(batches)) == 1, batches


# Every counter-backed gate of BENCH_pool.json, with a row counter it
# reads: (scenario, gate, counter).  Gates the JSON does not carry as a
# key are the flatness/growth headlines asserted by the test above.
COUNTER_GATES = [
    ("simulation", "routed flat in N", "routed"),
    ("bounded", "route_work_flat", "route_work_per_flush"),
    ("bounded-shared", "shared upkeep flat in N", "shared_upkeep"),
    ("bounded-shared", "naive upkeep grows with N", "naive_upkeep"),
    ("overlap-atoms", "shared_exactly_flat", "shared_atom_evals"),
    ("overlap-atoms", "shared_exactly_flat", "shared_substrate_atom_evals"),
    ("overlap-atoms", "naive atom evals grow with N", "naive_atom_evals"),
    ("shared-plan", "view_repairs_flat", "view_repairs"),
    ("reach-oracle", "consults_sublinear", "consults_per_update"),
    ("temporal", "upkeep_flat", "structure_batches"),
    # Zero rebuilds is the verdict; the gate is vacuous unless expiry ran.
    ("temporal", "zero_expiry_rebuilds", "expired"),
]
# Gates decided by a timing race rather than a counter.
TIMING_GATES = {
    ("bounded", "growth_ok"),
    ("shared-plan", "shared_wins"),
    ("reach-oracle", "columnar_wins"),
    ("kernels", "numpy_wins_bulk"),
    ("kernels", "numpy_wins_interval"),
    ("temporal", "bulk_expiry_wins"),
}


@pytest.mark.parametrize(
    "scenario,gate,counter", COUNTER_GATES,
    ids=[f"{s}-{c}" for s, _, c in COUNTER_GATES],
)
def test_counter_gates_are_not_vacuous(tiny_bench_pool, scenario, gate, counter):
    """A gate whose counter reads 0 at every size proves nothing: it
    passes whether or not the path it claims to measure ever ran."""
    _, doc = tiny_bench_pool
    rows = doc["scenarios"][scenario]["results"]
    assert rows and all(counter in row for row in rows), (scenario, counter)
    assert any(row[counter] > 0 for row in rows), (
        f"{scenario}: gate {gate!r} reads {counter}=0 at every size"
    )


def test_every_bench_gate_is_classified(tiny_bench_pool):
    """Each gate verdict the JSON carries (a bool, or None when ungated at
    this scale) is listed above as counter-backed or timing-backed, so a
    new gate cannot skip the vacuity check."""
    _, doc = tiny_bench_pool
    counter_gates = {(s, g) for s, g, _ in COUNTER_GATES}
    for name, scenario in doc["scenarios"].items():
        for key, value in scenario.items():
            if key in ("results", "skipped"):
                continue
            if value is None or isinstance(value, bool):
                assert (name, key) in counter_gates | TIMING_GATES, (
                    f"unclassified bench gate {name}.{key}"
                )


def test_compare_bench_trend_accumulates_over_history(tmp_path):
    """compare_bench --trend: each run appends a snapshot, seeding from
    the previous build's trend artifact, capped at --trend-cap."""
    import importlib.util
    import json
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "compare_bench",
        Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py",
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    curr = tmp_path / "curr.json"
    curr.write_text(json.dumps({
        "scenarios": {
            "overlap": {"results": [
                {"n": 4, "shared_ms": 1.0, "naive_ms": 2.0},
            ]},
        },
    }))
    trend = tmp_path / "trend.json"
    prev_trend = tmp_path / "prev_trend.json"

    # First build: no previous pool artifact, no previous trend — still
    # writes a one-snapshot history and exits 0 (fail-soft compare).
    assert mod.main([
        str(tmp_path / "missing.json"), str(curr), "--trend", str(trend),
    ]) == 0
    history = json.loads(trend.read_text())
    assert len(history) == 1
    assert history[0]["costs"] == {
        "overlap/n=4/shared_ms": 1.0,
        "overlap/n=4/naive_ms": 2.0,
    }

    # Later build seeds from the downloaded previous trend.
    prev_trend.write_text(trend.read_text())
    trend.unlink()
    assert mod.main([
        str(curr), str(curr),
        "--trend", str(trend), "--trend-previous", str(prev_trend),
    ]) == 0
    assert len(json.loads(trend.read_text())) == 2

    # The cap bounds the history.
    for _ in range(5):
        assert mod.main([
            str(curr), str(curr), "--trend", str(trend), "--trend-cap", "3",
        ]) == 0
    assert len(json.loads(trend.read_text())) == 3
