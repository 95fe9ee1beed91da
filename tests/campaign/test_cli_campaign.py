"""CLI surface of the campaign engine: run/status/resume/clean, list --json,
and the one-line-error contract for unknown or crashing workloads."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignSpec, ResultStore
from repro.cli import main
from repro.workloads import ALL_NAMES, get_workload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def store_root(tmp_path):
    return str(tmp_path / "store")


def _run_small(capsys, store_root, name="small", workloads="blackscholes"):
    return run_cli(
        capsys, "campaign", "run", "--name", name,
        "--workloads", workloads, "--sizes", "simsmall", "--tools", "native",
        "-j", "2", "--store", store_root,
    )


class TestCampaignRun:
    def test_matrix_flags_run_and_cache(self, capsys, store_root):
        code, out, _ = _run_small(capsys, store_root,
                                  workloads="blackscholes,streamcluster")
        assert code == 0
        assert "2 done (0 cached, 2 executed, 0 failed, 0 timeout)" in out
        assert "campaign.manifest.json" in out

        code, out, _ = _run_small(capsys, store_root,
                                  workloads="blackscholes,streamcluster")
        assert code == 0
        assert "2 done (2 cached, 0 executed, 0 failed, 0 timeout)" in out

    def test_spec_file_run(self, capsys, tmp_path, store_root):
        spec = CampaignSpec(name="fromfile", workloads=["blackscholes"],
                            tools=["native"])
        path = spec.save(tmp_path / "spec.json")
        code, out, _ = run_cli(capsys, "campaign", "run",
                               "--spec", str(path), "--store", store_root)
        assert code == 0
        assert "campaign 'fromfile': 1 jobs" in out

    def test_config_variants_multiply_jobs(self, capsys, store_root):
        code, out, _ = run_cli(
            capsys, "campaign", "run", "--name", "cfg",
            "--workloads", "blackscholes", "--tools", "native",
            "--config", "{}", "--config", '{"line_size": 64}',
            "--store", store_root, "--dry-run",
        )
        assert code == 0
        assert "2 jobs" in out

    def test_workloads_all_expands_registry(self, capsys, store_root):
        code, out, _ = run_cli(
            capsys, "campaign", "run", "--name", "everything",
            "--workloads", "all", "--tools", "native",
            "--store", store_root, "--dry-run",
        )
        assert code == 0
        assert f"{len(ALL_NAMES)} jobs" in out

    def test_dry_run_creates_no_store_entries(self, capsys, store_root):
        code, out, _ = run_cli(
            capsys, "campaign", "run", "--name", "dry",
            "--workloads", "blackscholes", "--tools", "native",
            "--store", store_root, "--dry-run",
        )
        assert code == 0
        assert "blackscholes/simsmall/native" in out
        assert "0 executed" in out
        assert ResultStore(store_root).keys() == []

    def test_run_without_spec_or_workloads_is_one_line_error(self, capsys):
        code, _, err = run_cli(capsys, "campaign", "run", "--name", "x")
        assert code == 1
        assert "needs --spec FILE or --workloads LIST" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_workload_in_matrix_is_one_line_error(
        self, capsys, store_root
    ):
        code, _, err = run_cli(
            capsys, "campaign", "run", "--name", "bad",
            "--workloads", "doom", "--store", store_root,
        )
        assert code == 1
        assert "unknown workloads: doom" in err
        assert "Traceback" not in err


    def test_negative_retries_is_a_usage_error(self, capsys, store_root):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--name", "neg", "--workloads",
                  "blackscholes", "--retries", "-1", "--store", store_root])
        assert exc.value.code == 2
        assert "--retries: must be non-negative, got -1" in (
            capsys.readouterr().err)
        assert not ResultStore(store_root).campaign_dir("neg").exists()


class TestCampaignStatusResumeClean:
    def test_status_table_and_json(self, capsys, store_root):
        _run_small(capsys, store_root, name="st")
        code, out, _ = run_cli(capsys, "campaign", "status", "st",
                               "--store", store_root)
        assert code == 0
        assert "blackscholes/simsmall/native" in out
        assert "done" in out

        code, out, _ = run_cli(capsys, "campaign", "status", "st", "--json",
                               "--store", store_root)
        assert code == 0
        manifest = json.loads(out)
        assert manifest["schema"] == "repro-campaign/1"
        assert manifest["name"] == "st"
        assert manifest["totals"]["done"] == 1

    def test_status_of_unknown_campaign(self, capsys, store_root):
        code, _, err = run_cli(capsys, "campaign", "status", "ghost",
                               "--store", store_root)
        assert code != 0
        assert "ghost" in err
        assert "Traceback" not in err

    def test_resume_runs_only_new_jobs(self, capsys, tmp_path, store_root):
        _run_small(capsys, store_root, name="res")
        # The spec grows by one workload after the first run finished;
        # resume must execute only the new cell.
        state_spec = (ResultStore(store_root).campaign_dir("res")
                      / "spec.json")
        grown = CampaignSpec(name="res",
                             workloads=["blackscholes", "streamcluster"],
                             tools=["native"])
        grown.save(state_spec)
        code, out, _ = run_cli(capsys, "campaign", "resume", "res",
                               "-j", "2", "--store", store_root)
        assert code == 0
        assert "2 done (1 cached, 1 executed, 0 failed, 0 timeout)" in out

    def test_resume_unknown_campaign(self, capsys, store_root):
        code, _, err = run_cli(capsys, "campaign", "resume", "ghost",
                               "--store", store_root)
        assert code == 1
        assert "no campaign named" in err

    def test_clean_one_campaign_and_all(self, capsys, store_root):
        _run_small(capsys, store_root, name="c1")
        store = ResultStore(store_root)
        assert len(store.keys()) == 1

        code, out, _ = run_cli(capsys, "campaign", "clean", "c1",
                               "--objects", "--store", store_root)
        assert code == 0
        assert store.keys() == []
        assert not store.campaign_dir("c1").exists()

        _run_small(capsys, store_root, name="c2")
        code, _, _ = run_cli(capsys, "campaign", "clean", "--all",
                             "--store", store_root)
        assert code == 0
        assert not store.root.exists()

    def test_clean_unknown_campaign(self, capsys, store_root):
        code, _, err = run_cli(capsys, "campaign", "clean", "ghost",
                               "--store", store_root)
        assert code == 2
        assert "ghost" in err


class TestListJson:
    def test_machine_readable_registry(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--json")
        assert code == 0
        payload = json.loads(out)
        names = [w["name"] for w in payload["workloads"]]
        assert names == list(ALL_NAMES)
        assert {"name", "suite", "description", "sizes"} <= \
            set(payload["workloads"][0])
        assert "simsmall" in payload["sizes"]
        assert "sigil+callgrind" in payload["tools"]


class TestOneLineErrors:
    def test_crashing_workload_profile(self, capsys, monkeypatch):
        workload = get_workload("blackscholes", "simsmall")

        def explode(self, rt):
            raise RuntimeError("synthetic workload crash")

        monkeypatch.setattr(type(workload), "main", explode)
        code, _, err = run_cli(capsys, "profile", "blackscholes")
        assert code == 1
        assert "synthetic workload crash" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_run_missing_profile_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report",
                               str(tmp_path / "missing.profile"))
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestCampaignVerify:
    def test_clean_store_exits_zero(self, capsys, store_root):
        _run_small(capsys, store_root, name="v")
        code, out, _ = run_cli(capsys, "campaign", "verify",
                               "--store", store_root)
        assert code == 0
        assert "1 entries checked, all ok" in out

    def test_corruption_is_nonzero_and_named(self, capsys, store_root):
        _run_small(capsys, store_root, name="v")
        store = ResultStore(store_root)
        (key,) = store.keys()
        (store.object_dir(key) / "meta.json").write_text("{broken")
        code, out, err = run_cli(capsys, "campaign", "verify",
                                 "--store", store_root)
        assert code == 1
        assert "1 CORRUPT" in out
        assert key[:12] in err
        assert "Traceback" not in err

    def test_empty_store_is_clean(self, capsys, store_root):
        code, out, _ = run_cli(capsys, "campaign", "verify",
                               "--store", store_root)
        assert code == 0
        assert "0 entries checked, all ok" in out

