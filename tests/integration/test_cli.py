"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


def unwrap(out: str, command: str):
    """Assert the shared ``--json`` envelope and return its payload."""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == command
    return doc["result"]


class TestCli:
    def test_machines(self, capsys):
        assert main(["machines", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "Intel iPSC" in out
        assert "Connection Machine" in out

    def test_advise_ipsc(self, capsys):
        assert main(["advise", "--machine", "ipsc", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "exchange (buffered)" in out

    def test_advise_cm(self, capsys):
        assert main(["advise", "--machine", "cm", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "MPT" in out

    def test_advise_custom(self, capsys):
        assert (
            main(
                [
                    "advise",
                    "--machine",
                    "custom",
                    "-n",
                    "4",
                    "--tau",
                    "2.0",
                    "--n-port",
                ]
            )
            == 0
        )
        assert "SBnT" in capsys.readouterr().out

    def test_run_2d(self, capsys):
        assert (
            main(["run", "--machine", "ipsc", "-n", "4", "--elements", "4096"])
            == 0
        )
        out = capsys.readouterr().out
        assert "verified:   True" in out
        assert "spt" in out

    def test_run_1d_rows(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--machine",
                    "cm",
                    "-n",
                    "3",
                    "--layout",
                    "1d-rows",
                    "--elements",
                    "1024",
                ]
            )
            == 0
        )
        assert "verified:   True" in capsys.readouterr().out

    def test_run_rejects_non_power_of_two(self, capsys):
        assert main(["run", "--elements", "1000"]) == 2

    def test_run_rejects_odd_cube_for_2d(self, capsys):
        assert main(["run", "-n", "3", "--layout", "2d"]) == 2

    def test_run_with_faults_degrades_and_verifies(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--machine",
                    "ipsc",
                    "-n",
                    "4",
                    "--elements",
                    "4096",
                    "--faults",
                    "links=0-1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "faults:     1 permanent" in out
        assert "degraded:   spt -> " in out
        assert "verified:   True" in out

    def test_run_with_faults_is_reproducible(self, capsys):
        argv = [
            "run",
            "-n",
            "4",
            "--elements",
            "1024",
            "--faults",
            "seed=9,link_rate=0.03",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_explicit_algorithm(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-n",
                    "4",
                    "--elements",
                    "1024",
                    "--algorithm",
                    "router",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "algorithm:  router" in out
        assert "verified:   True" in out

    def test_run_reports_disconnected_cube_cleanly(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-n",
                    "2",
                    "--elements",
                    "64",
                    "--faults",
                    "links=0-1+1-0+0-2+2-0",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "transpose failed under faults" in err
        assert "not strongly connected" in err

    def test_run_rejects_bad_fault_spec(self, capsys):
        assert (
            main(["run", "-n", "4", "--faults", "bogus_key=1"]) == 2
        )
        assert "bad --faults spec" in capsys.readouterr().err

    def test_rectangular_1d_cols(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--machine",
                    "ipsc",
                    "-n",
                    "2",
                    "--layout",
                    "1d-cols",
                    "--elements",
                    "2048",  # 2^11 -> 32 x 64, rectangular
                ]
            )
            == 0
        )
        assert "verified:   True" in capsys.readouterr().out

    def test_machines_lists_both_presets_with_constants(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "Intel iPSC (6-cube)" in out
        assert "Connection Machine (6-cube)" in out
        assert "one-port" in out and "n-port" in out
        assert "tau=" in out and "t_c=" in out

    def test_advise_square_root_regime_note(self, capsys):
        assert main(["advise", "--machine", "ipsc", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3 lower bound" in out
        assert "regime:" in out


class TestCliJson:
    def test_advise_json(self, capsys):
        assert main(["advise", "--machine", "cm", "-n", "6", "--json"]) == 0
        doc = unwrap(capsys.readouterr().out, "advise")
        assert doc["machine"]["port_model"] == "n-port"
        assert doc["ranking"][0]["rank"] == 1
        assert any(r["algorithm"] == "MPT" for r in doc["ranking"])
        assert doc["lower_bound"] > 0

    def test_run_json(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-n",
                    "4",
                    "--elements",
                    "4096",
                    "--json",
                ]
            )
            == 0
        )
        doc = unwrap(capsys.readouterr().out, "run")
        assert doc["verified"] is True
        assert doc["algorithm"] == "spt"
        assert doc["stats"]["phases"] > 0
        assert doc["stats"]["time"] > 0

    def test_run_json_reports_degradation(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-n",
                    "4",
                    "--elements",
                    "4096",
                    "--faults",
                    "links=0-1",
                    "--json",
                ]
            )
            == 0
        )
        doc = unwrap(capsys.readouterr().out, "run")
        assert doc["degraded"] is True
        assert doc["requested"] == "spt"
        assert doc["faults"].startswith("1 permanent")

    def test_machines_json(self, capsys):
        assert main(["machines", "-n", "5", "--json"]) == 0
        doc = unwrap(capsys.readouterr().out, "machines")
        assert [m["n"] for m in doc] == [5, 5]
        assert {m["port_model"] for m in doc} == {"one-port", "n-port"}


class TestCliPlans:
    def test_plan_writes_loadable_document(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert (
            main(
                [
                    "plan",
                    "-n",
                    "4",
                    "--elements",
                    "4096",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        from repro.plans import CompiledPlan

        plan = CompiledPlan.loads(out.read_text())
        assert plan.algorithm == "spt"
        assert "wrote" in capsys.readouterr().err

    def test_plan_to_stdout_is_json(self, capsys):
        assert main(["plan", "-n", "4", "--elements", "1024"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "spt"

    def test_plan_rejects_bad_elements(self, capsys):
        assert main(["plan", "--elements", "1000"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_plan_cache_dir_prints_key(self, tmp_path, capsys):
        assert (
            main(
                [
                    "plan",
                    "-n",
                    "4",
                    "--elements",
                    "1024",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        key = capsys.readouterr().out.strip()
        assert len(key) == 64
        assert (tmp_path / f"{key}.json").is_file()

    def test_replay_matches_run(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert (
            main(["plan", "-n", "4", "--elements", "4096", "--out", str(out)])
            == 0
        )
        capsys.readouterr()
        assert main(["replay", str(out), "--json"]) == 0
        replayed = unwrap(capsys.readouterr().out, "replay")
        assert main(["run", "-n", "4", "--elements", "4096", "--json"]) == 0
        direct = unwrap(capsys.readouterr().out, "run")
        assert replayed["stats"] == direct["stats"]

    def test_replay_missing_plan_fails_cleanly(self, capsys):
        assert main(["replay", "/nonexistent/plan.json"]) == 2
        assert "cannot load plan" in capsys.readouterr().err

    def test_batch_second_run_all_hits(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(
            json.dumps(
                [
                    {"elements": 4096, "n": 4},
                    {"elements": 1024, "n": 4},
                ]
            )
        )
        assert main(["batch", str(reqs), "--repeat", "2", "--json"]) == 0
        doc = unwrap(capsys.readouterr().out, "batch")
        first, second = doc["runs"]
        assert first["misses"] == 2 and first["hits"] == 0
        assert second["hits"] == 2 and second["misses"] == 0
        assert doc["cache"]["hits"] == 2

    def test_batch_rejects_malformed_requests(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.json"
        for doc in (
            {"elements": 64},
            # Well-formed JSON, but requests that cannot resolve: every
            # one is resolved at load, before anything is served.
            [{"elements": 3, "n": 4}],
            [{"elements": 256, "n": 4}, {"machine": "bogus"}],
        ):
            reqs.write_text(json.dumps(doc))
            assert main(["batch", str(reqs)]) == 2
            captured = capsys.readouterr()
            assert "cannot load requests" in captured.err
            assert captured.out == ""

    def test_plan_and_batch_write_one_document_per_key(
        self, tmp_path, capsys
    ):
        plan_dir, batch_dir = tmp_path / "plan", tmp_path / "batch"
        assert main(
            ["plan", "-n", "4", "--elements", "256",
             "--cache-dir", str(plan_dir)]
        ) == 0
        key = capsys.readouterr().out.strip()
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps([{"elements": 256, "n": 4}]))
        assert main(
            ["batch", str(reqs), "--cache-dir", str(batch_dir)]
        ) == 0
        assert sorted(p.name for p in batch_dir.iterdir()) == [f"{key}.json"]
        assert (plan_dir / f"{key}.json").read_bytes() == (
            batch_dir / f"{key}.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "topology, n",
        [("torus:bogus", 4), ("torus:4x4x4", 4)],
        ids=["unparseable", "wrong-node-count"],
    )
    def test_replay_rejects_plan_with_bad_topology(
        self, tmp_path, capsys, topology, n
    ):
        out = tmp_path / "plan.json"
        assert main(
            ["plan", "-n", str(n), "--elements", "256", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        doc["machine"]["topology"] = topology
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 2
        assert "cannot load plan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "-n", "4", "--elements", "256", "--checkpoint-every", "-1"],
            ["replay", "plan.json", "--checkpoint-every", "-2"],
            ["batch", "reqs.json", "--cache-size", "0"],
        ],
        ids=["run-checkpoint", "replay-checkpoint", "batch-cache-size"],
    )
    def test_out_of_range_numeric_flags_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
