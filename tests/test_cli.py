"""Tests for the command-line interface."""

import json
import os
from unittest import mock

import pytest

from repro.core.dse.explainable import ExplainableDSE
from repro.experiments import cli
from repro.experiments.cli import build_parser, main
from repro.experiments.pareto import archive_from_results, format_frontier
from repro.experiments.setup import (
    build_edge_design_space,
    edge_constraints,
    make_evaluator,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explore_args(self):
        args = build_parser().parse_args(
            ["explore", "resnet18", "--iterations", "9", "--mapping", "fixed"]
        )
        assert args.model == "resnet18"
        assert args.iterations == 9
        assert args.mapping == "fixed"

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "alexnet"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table7"])
        assert args.name == "table7"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["explore", "resnet18", "--iterations"],
            ["compare", "resnet18", "--iterations"],
            ["experiment", "fig9", "--iterations"],
            ["submit", "resnet18", "--server", "http://127.0.0.1:1",
             "--iterations"],
            ["pareto", "resnet18", "--iterations"],
            ["pareto", "resnet18", "--capacity"],
            ["serve", "--max-concurrent"],
            ["serve", "--quantum"],
            ["serve", "--max-queue"],
            ["serve", "--tenant-inflight"],
            ["submit", "resnet18", "--server", "http://127.0.0.1:1",
             "--weight"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[-1].lstrip('-')}",
    )
    def test_non_positive_counts_are_usage_errors(self, argv, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + [value])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,dest",
        [
            (["serve", "--tenant-quota"], "tenant_quota"),
            (["submit", "resnet18", "--server", "http://127.0.0.1:1",
              "--quota"], "quota"),
        ],
        ids=["serve", "submit"],
    )
    def test_quotas_are_non_negative_ints(self, argv, dest, capsys):
        assert getattr(build_parser().parse_args(argv + ["0"]), dest) == 0
        for value in ("-3", "abc"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv + [value])
            assert excinfo.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,expected", [(None, "env"), ("0", None), ("5", 5)]
    )
    def test_serve_tenant_quota_zero_is_unlimited(
        self, monkeypatch, flag, expected
    ):
        import repro.service

        seen = {}

        class Stop(Exception):
            pass

        class Service:
            def __init__(self, spool, **kwargs):
                seen.update(kwargs)

            async def start(self):
                raise Stop

        monkeypatch.setattr(repro.service, "CampaignService", Service)
        argv = ["serve"] + ([] if flag is None else ["--tenant-quota", flag])
        with pytest.raises(Stop):
            cli._cmd_serve(build_parser().parse_args(argv))
        assert seen["default_quota"] == expected

    def test_trace_and_resume_mutually_exclusive(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["explore", "resnet18", "--trace", "a.jsonl",
                 "--resume", "b.jsonl"]
            )
        assert excinfo.value.code == 2

    def test_report_args(self):
        args = build_parser().parse_args(
            ["report", "run.jsonl", "--format", "json"]
        )
        assert args.journal == "run.jsonl"
        assert args.format == "json"


class TestCommands:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "resnet18" in out
        assert "wav2vec2" in out

    def test_explore_small(self, capsys):
        code = main(["explore", "resnet18", "--iterations", "12"])
        out = capsys.readouterr().out
        assert "evaluations" in out
        assert code in (0, 1)

    def test_experiment_table7(self, capsys):
        assert main(["experiment", "table7"]) == 0
        assert "Table 7" in capsys.readouterr().out

    def test_experiment_matrix_with_model_subset(self, capsys):
        code = main(
            [
                "experiment",
                "fig9",
                "--iterations",
                "5",
                "--models",
                "resnet18",
            ]
        )
        assert code == 0
        assert "Fig. 9" in capsys.readouterr().out


class TestPareto:
    def test_frontier_is_the_archive_of_the_run(self, tmp_path, capsys):
        journal, out = tmp_path / "f.jsonl", tmp_path / "f.json"
        assert main(
            ["pareto", "resnet18", "--iterations", "25",
             "--journal", str(journal), "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out

        result = ExplainableDSE(
            build_edge_design_space(),
            make_evaluator("resnet18"),
            edge_constraints("resnet18"),
            max_evaluations=25,
        ).run()
        expected_journal = tmp_path / "expected.jsonl"
        expected = archive_from_results(
            [result], journal_path=expected_journal
        )
        assert len(expected) > 0
        assert out.read_text() == (
            json.dumps(expected.snapshot(), indent=2) + "\n"
        )
        assert journal.read_bytes() == expected_journal.read_bytes()
        frontier = format_frontier(expected)
        assert frontier in printed

        assert main(["pareto", "--replay", str(journal)]) == 0
        assert frontier in capsys.readouterr().out


class _RunnerBuilt(Exception):
    pass


class TestJobs:
    def test_experiment_passes_jobs_to_the_matrix_runner(self, monkeypatch):
        """``--jobs`` sizes the matrix pool as a parameter; it must not
        leak into the environment, where every evaluator would see it."""
        seen = {}

        def runner_stub(**kwargs):
            seen.update(kwargs)
            raise _RunnerBuilt

        monkeypatch.setattr(cli, "ComparisonRunner", runner_stub)
        with mock.patch.dict(os.environ):
            os.environ.pop("REPRO_JOBS", None)
            with pytest.raises(_RunnerBuilt):
                main(["experiment", "fig9", "--models", "resnet18",
                      "--iterations", "2", "--jobs", "2"])
            assert "REPRO_JOBS" not in os.environ
        assert seen == {"iterations": 2, "jobs": "2"}

    @pytest.mark.parametrize("jobs", ["abc", "-3", "1.5"])
    def test_experiment_rejects_bad_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["experiment", "fig9", "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["auto", "0", "3"])
    def test_experiment_accepts_auto_and_counts(self, jobs):
        args = build_parser().parse_args(["experiment", "fig9", "--jobs", jobs])
        assert args.jobs == jobs

    @pytest.mark.parametrize("command", ["explore", "compare"])
    def test_single_model_commands_reject_jobs(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "resnet18", "--jobs", "2"])
        assert excinfo.value.code == 2


class TestTraceResumeReport:
    def test_trace_then_report_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        code = main(
            ["explore", "resnet18", "--iterations", "8",
             "--trace", str(journal)]
        )
        assert code in (0, 1)
        assert journal.exists()
        assert (tmp_path / "run.jsonl.ckpt").exists()
        assert "trace journal" in capsys.readouterr().out

        assert main(["report", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "# DSE explanation report" in out
        assert "## Step 1" in out

        report_path = tmp_path / "report.json"
        assert main(
            ["report", str(journal), "--format", "json",
             "--out", str(report_path)]
        ) == 0
        assert "steps" in report_path.read_text()

        code = main(
            ["explore", "resnet18", "--iterations", "14",
             "--resume", str(journal)]
        )
        assert code in (0, 1)

    def test_trace_into_missing_directory_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["explore", "resnet18", "--trace",
                 str(tmp_path / "no" / "dir" / "x.jsonl")]
            )
        assert excinfo.value.code == 2

    def test_resume_missing_journal_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["explore", "resnet18", "--resume",
                 str(tmp_path / "missing.jsonl")]
            )
        assert excinfo.value.code == 2

    def test_resume_journal_without_checkpoint_exits_2(self, tmp_path):
        journal = tmp_path / "orphan.jsonl"
        journal.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "resnet18", "--resume", str(journal)])
        assert excinfo.value.code == 2

    def test_report_missing_journal_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(tmp_path / "none.jsonl")])
        assert excinfo.value.code == 2

    def test_report_corrupt_journal_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "bad.jsonl"
        journal.write_text("garbage\n")
        assert main(["report", str(journal)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
