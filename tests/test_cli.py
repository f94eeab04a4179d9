"""Tests for the repro-anonymize CLI."""

import csv
import json

import pytest

from repro.cli import anonymize_csv, main
from repro.exceptions import ReproError


@pytest.fixture
def survey_csv(tmp_path, rng):
    """A small survey CSV with an id column and three categoricals."""
    path = tmp_path / "survey.csv"
    rows = []
    for i in range(400):
        rows.append(
            [
                str(i),
                ["no", "yes"][rng.integers(0, 2)],
                ["never", "monthly", "weekly"][rng.integers(0, 3)],
                ["low", "mid", "high"][rng.integers(0, 3)],
            ]
        )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "smokes", "alcohol", "stress"])
        writer.writerows(rows)
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


class TestAnonymizeCsv:
    def test_roundtrip_structure(self, survey_csv, tmp_path):
        out = tmp_path / "out.csv"
        report = anonymize_csv(
            survey_csv, out, p=0.7,
            columns=["smokes", "alcohol", "stress"], seed=1,
        )
        header, rows = read_csv(out)
        assert header == ["id", "smokes", "alcohol", "stress"]
        assert len(rows) == 400
        assert report["n_records"] == 400
        assert report["protocol"] == "RR-Independent"
        assert report["epsilon_total"] > 0

    def test_unselected_columns_untouched(self, survey_csv, tmp_path):
        out = tmp_path / "out.csv"
        anonymize_csv(
            survey_csv, out, p=0.3,
            columns=["smokes", "alcohol", "stress"], seed=2,
        )
        _, original = read_csv(survey_csv)
        _, randomized = read_csv(out)
        assert [r[0] for r in original] == [r[0] for r in randomized]

    def test_values_stay_in_category_set(self, survey_csv, tmp_path):
        out = tmp_path / "out.csv"
        anonymize_csv(
            survey_csv, out, p=0.2,
            columns=["smokes", "alcohol", "stress"], seed=3,
        )
        _, rows = read_csv(out)
        assert {r[1] for r in rows} <= {"no", "yes"}
        assert {r[2] for r in rows} <= {"never", "monthly", "weekly"}

    def test_randomization_actually_happens(self, survey_csv, tmp_path):
        out = tmp_path / "out.csv"
        anonymize_csv(
            survey_csv, out, p=0.1,
            columns=["smokes", "alcohol", "stress"], seed=4,
        )
        _, original = read_csv(survey_csv)
        _, randomized = read_csv(out)
        changed = sum(
            1
            for a, b in zip(original, randomized)
            if a[1:] != b[1:]
        )
        assert changed > 100  # p=0.1: most records perturbed somewhere

    def test_deterministic_given_seed(self, survey_csv, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cols = ["smokes", "alcohol", "stress"]
        anonymize_csv(survey_csv, out_a, p=0.5, columns=cols, seed=7)
        anonymize_csv(survey_csv, out_b, p=0.5, columns=cols, seed=7)
        assert out_a.read_text() == out_b.read_text()

    def test_clusters_mode(self, survey_csv, tmp_path):
        out = tmp_path / "out.csv"
        report = anonymize_csv(
            survey_csv, out, p=0.6,
            columns=["smokes", "alcohol", "stress"],
            clusters="smokes+alcohol,stress", seed=5,
        )
        assert report["protocol"] == "RR-Clusters"
        assert ["smokes", "alcohol"] in report["clusters"]

    def test_report_file_written(self, survey_csv, tmp_path):
        out = tmp_path / "out.csv"
        report_path = tmp_path / "report.json"
        anonymize_csv(
            survey_csv, out, p=0.7,
            columns=["smokes", "alcohol", "stress"], seed=6,
            report_path=report_path,
        )
        payload = json.loads(report_path.read_text())
        assert payload["attributes"]["smokes"]["size"] == 2
        assert set(payload["epsilon_per_release"]) == {
            "smokes", "alcohol", "stress"
        }

    def test_chunked_deterministic_across_chunkings(self, survey_csv, tmp_path):
        cols = ["smokes", "alcohol", "stress"]
        outputs = []
        for label, chunk_size in [("mono", 10**9), ("chunked", 64)]:
            out = tmp_path / f"{label}.csv"
            report = anonymize_csv(
                survey_csv, out, p=0.5, columns=cols, seed=9,
                chunk_size=chunk_size,
            )
            assert report["engine"] == {"chunk_size": chunk_size}
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_chunked_clusters_mode(self, survey_csv, tmp_path):
        report = anonymize_csv(
            survey_csv, tmp_path / "out.csv", p=0.6,
            columns=["smokes", "alcohol", "stress"],
            clusters="smokes+alcohol,stress", seed=5,
            chunk_size=50,
        )
        assert report["protocol"] == "RR-Clusters"

    def test_unknown_column_rejected(self, survey_csv, tmp_path):
        with pytest.raises(ReproError, match="not in header"):
            anonymize_csv(
                survey_csv, tmp_path / "out.csv", p=0.5, columns=["ghost"]
            )

    def test_constant_column_rejected(self, tmp_path):
        path = tmp_path / "constant.csv"
        path.write_text("a,b\nx,1\nx,2\n")
        with pytest.raises(ReproError, match="distinct value"):
            anonymize_csv(path, tmp_path / "out.csv", p=0.5, columns=["a"])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\nx,1\ny\n")
        with pytest.raises(ReproError, match="fields"):
            anonymize_csv(path, tmp_path / "out.csv", p=0.5)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            anonymize_csv(path, tmp_path / "out.csv", p=0.5)

    @pytest.mark.parametrize("chunk_size", [None, 50])
    def test_negative_seed_is_a_repro_error(
        self, survey_csv, tmp_path, chunk_size
    ):
        with pytest.raises(ReproError, match="non-negative"):
            anonymize_csv(
                survey_csv, tmp_path / "out.csv", p=0.5, seed=-1,
                chunk_size=chunk_size,
            )


class TestMainEntry:
    def test_happy_path(self, survey_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            [
                str(survey_csv), "-o", str(out), "--p", "0.7",
                "--columns", "smokes,alcohol,stress", "--seed", "1",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "RR-Independent" in capsys.readouterr().out

    def test_engine_flags(self, survey_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            [
                str(survey_csv), "-o", str(out), "--p", "0.7",
                "--columns", "smokes,alcohol,stress", "--seed", "1",
                "--chunk-size", "128",
            ]
        )
        assert code == 0
        assert out.exists()

    def test_bad_p_rejected(self, survey_csv, tmp_path):
        with pytest.raises(SystemExit):
            main([str(survey_csv), "-o", str(tmp_path / "o.csv"), "--p", "1.5"])

    def test_bad_engine_flags_rejected(self, survey_csv, tmp_path):
        base = [str(survey_csv), "-o", str(tmp_path / "o.csv"), "--p", "0.5"]
        with pytest.raises(SystemExit):
            main(base + ["--chunk-size", "0"])

    def test_workers_flag_is_unknown(self, survey_csv, tmp_path, capsys):
        base = [str(survey_csv), "-o", str(tmp_path / "o.csv"), "--p", "0.5"]
        for argv in (base, ["encode", *base, "--design", str(tmp_path / "d")]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--workers", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_error_path_returns_one(self, tmp_path, capsys):
        code = main(
            [
                str(tmp_path / "missing.csv"),
                "-o", str(tmp_path / "o.csv"),
                "--p", "0.5",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestParseTimeValidation:
    """Bad seeds and run counts are argparse errors (exit 2), never
    tracebacks from deep inside the randomizer or the experiments."""

    def _assert_parse_error(self, call, argv, capsys, expected):
        with pytest.raises(SystemExit) as exc:
            call(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("chunk", [[], ["--chunk-size", "64"]])
    def test_negative_seed_rejected(self, survey_csv, tmp_path, capsys, chunk):
        anonymize = [
            str(survey_csv), "-o", str(tmp_path / "o.csv"), "--p", "0.5",
        ]
        encode = [
            "encode", str(survey_csv), "-o", str(tmp_path / "r.rrw"),
            "--design", str(tmp_path / "d.json"), "--p", "0.5",
        ]
        for argv in (anonymize, encode):
            self._assert_parse_error(
                main, argv + chunk + ["--seed", "-1"], capsys,
                "expected a non-negative integer",
            )
        assert not (tmp_path / "o.csv").exists()
        assert not (tmp_path / "r.rrw").exists()

    def test_zero_seed_accepted(self, survey_csv, tmp_path):
        out = tmp_path / "o.csv"
        argv = [str(survey_csv), "-o", str(out), "--p", "0.5", "--seed", "0"]
        assert main(argv) == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--runs", "0"], "expected a positive integer"),
            (["--runs", "-3"], "expected a positive integer"),
            (["--seed", "-1"], "expected a non-negative integer"),
        ],
    )
    def test_experiment_runner_flags(self, argv, expected, capsys):
        from repro.experiments.runner import main as run_experiments

        self._assert_parse_error(
            run_experiments, ["table1", *argv], capsys, expected
        )


class TestServiceCLI:
    """encode / ingest / query subcommands end-to-end."""

    @pytest.fixture
    def encoded(self, survey_csv, tmp_path):
        reports = tmp_path / "reports.rrw"
        design = tmp_path / "design.json"
        code = main(
            [
                "encode", str(survey_csv), "-o", str(reports),
                "--design", str(design), "--p", "0.7",
                "--columns", "smokes,alcohol,stress",
                "--seed", "11", "--frame-records", "25",
            ]
        )
        assert code == 0
        return reports, design

    def test_encode_writes_reports_and_design(self, encoded, capsys):
        reports, design = encoded
        assert reports.stat().st_size > 0
        payload = json.loads(design.read_text())
        assert payload["protocol"] == "RR-Independent"
        assert payload["p"] == 0.7
        assert [a["name"] for a in payload["schema"]] == [
            "smokes", "alcohol", "stress"
        ]
        # the party's seed must never travel to the collector: with it,
        # the data-independent keep mask (and thus every kept true
        # value) could be regenerated
        assert "seed" not in payload

    def test_ingest_then_query(self, encoded, tmp_path, capsys):
        reports, design = encoded
        state = tmp_path / "state"
        assert main(
            [
                "ingest", str(reports), "-s", str(state),
                "--design", str(design), "--checkpoint-every", "4",
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["frames_ingested"] == 16  # 400 records / 25
        assert summary["n_observed"] == 400
        assert summary["checkpointed"] is True

        out = tmp_path / "answer.json"
        assert main(
            [
                "query", "-s", str(state), "--design", str(design),
                "--marginal", "smokes", "--pair", "smokes", "alcohol",
                "-o", str(out),
            ]
        ) == 0
        answer = json.loads(out.read_text())
        assert answer["n_observed"] == 400
        assert set(answer["marginals"]) == {"smokes"}
        assert abs(sum(answer["marginals"]["smokes"]) - 1.0) < 1e-9
        table = answer["pairs"]["smokes|alcohol"]
        assert len(table) == 2 and len(table[0]) == 3

    def test_crash_resume_matches_uninterrupted(
        self, encoded, tmp_path, capsys
    ):
        """CI acceptance flow: simulated crash + recovery produces a
        byte-identical query answer."""
        reports, design = encoded
        base = ["--design", str(design)]
        assert main(
            ["ingest", str(reports), "-s", str(tmp_path / "a")]
            + base + ["--checkpoint-every", "5"]
        ) == 0
        assert main(
            ["ingest", str(reports), "-s", str(tmp_path / "b")]
            + base + ["--checkpoint-every", "5", "--stop-after", "7"]
        ) == 0
        assert main(
            ["ingest", str(reports), "-s", str(tmp_path / "b")]
            + base + ["--checkpoint-every", "5", "--resume"]
        ) == 0
        capsys.readouterr()
        answer_a = tmp_path / "a.json"
        answer_b = tmp_path / "b.json"
        for state, out in (("a", answer_a), ("b", answer_b)):
            assert main(
                ["query", "-s", str(tmp_path / state)] + base
                + ["-o", str(out)]
            ) == 0
        assert answer_a.read_bytes() == answer_b.read_bytes()

    def test_ingest_refuses_dirty_state_dir(self, encoded, tmp_path, capsys):
        reports, design = encoded
        state = tmp_path / "state"
        args = ["ingest", str(reports), "-s", str(state), "--design", str(design)]
        assert main(args) == 0
        assert main(args) == 1
        assert "--resume" in capsys.readouterr().err

    def test_bad_positive_int_flags_rejected_at_parse(
        self, encoded, tmp_path, survey_csv
    ):
        reports, design = encoded
        with pytest.raises(SystemExit):
            main(
                [
                    "encode", str(survey_csv), "-o", str(tmp_path / "r"),
                    "--design", str(tmp_path / "d"), "--p", "0.5",
                    "--frame-records", "0",
                ]
            )
        for flag, value in (
            ("--checkpoint-every", "0"),
            ("--batch-size", "-2"),
            ("--stop-after", "zero"),
        ):
            with pytest.raises(SystemExit):
                main(
                    [
                        "ingest", str(reports), "-s", str(tmp_path / "s"),
                        "--design", str(design), flag, value,
                    ]
                )

    def test_resume_with_mismatched_reports_rejected(
        self, encoded, survey_csv, tmp_path, capsys
    ):
        """--resume must refuse a reports file whose prefix differs
        from what the log already ingested (e.g. re-encoded stream)."""
        reports, design = encoded
        state = tmp_path / "state"
        assert main(
            [
                "ingest", str(reports), "-s", str(state),
                "--design", str(design), "--stop-after", "5",
            ]
        ) == 0
        other_reports = tmp_path / "other.rrw"
        other_design = tmp_path / "other.json"
        assert main(
            [
                "encode", str(survey_csv), "-o", str(other_reports),
                "--design", str(other_design), "--p", "0.7",
                "--columns", "smokes,alcohol,stress",
                "--seed", "99", "--frame-records", "25",  # different stream
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "ingest", str(other_reports), "-s", str(state),
                "--design", str(design), "--resume",
            ]
        )
        assert code == 1
        assert "do not match" in capsys.readouterr().err

    def test_compact_bounds_state_dir(self, encoded, tmp_path, capsys):
        """ingest with tiny segments, compact, query — disk shrinks and
        the answer still reflects every report."""
        reports, design = encoded
        state = tmp_path / "state"
        assert main(
            [
                "ingest", str(reports), "-s", str(state),
                "--design", str(design), "--segment-bytes", "256",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "compact", "-s", str(state), "--design", str(design),
                "--segment-bytes", "256",
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["segments_retired"] > 0
        assert summary["bytes_freed"] > 0
        assert main(
            ["query", "-s", str(state), "--design", str(design)]
        ) == 0
        assert json.loads(capsys.readouterr().out)["n_observed"] == 400

    def test_ingest_compact_flag_reports_stats(
        self, encoded, tmp_path, capsys
    ):
        reports, design = encoded
        assert main(
            [
                "ingest", str(reports), "-s", str(tmp_path / "state"),
                "--design", str(design), "--segment-bytes", "256",
                "--compact",
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["compaction"]["segments_retired"] > 0

    def test_compact_refuses_missing_state_dir(
        self, encoded, tmp_path, capsys
    ):
        """A typo'd path must error, not silently pin a fresh empty
        state directory."""
        _, design = encoded
        missing = tmp_path / "state-typo"
        code = main(["compact", "-s", str(missing), "--design", str(design)])
        assert code == 1
        assert "no collector state" in capsys.readouterr().err
        assert not missing.exists()

    def test_resume_with_short_reports_after_compaction_rejected(
        self, encoded, tmp_path, capsys
    ):
        """Frames retired by compaction can't be byte-compared on
        resume, but a reports file shorter than the ingested prefix is
        still detectably wrong."""
        from repro.service.journal import FrameWriter

        reports, design = encoded
        state = tmp_path / "state"
        assert main(
            [
                "ingest", str(reports), "-s", str(state),
                "--design", str(design), "--segment-bytes", "256",
                "--compact",
            ]
        ) == 0
        capsys.readouterr()
        empty = tmp_path / "empty.rrw"
        FrameWriter(empty).close()
        code = main(
            [
                "ingest", str(empty), "-s", str(state),
                "--design", str(design), "--resume",
            ]
        )
        assert code == 1
        assert "fewer frames" in capsys.readouterr().err

    def test_missing_design_errors_cleanly(self, encoded, tmp_path, capsys):
        reports, _ = encoded
        code = main(
            [
                "ingest", str(reports), "-s", str(tmp_path / "s"),
                "--design", str(tmp_path / "nope.json"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_tampered_design_rejected(self, encoded, tmp_path, capsys):
        reports, design = encoded
        payload = json.loads(design.read_text())
        payload["schema"][0]["categories"] = ["no", "yes", "maybe"]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        code = main(
            [
                "ingest", str(reports), "-s", str(tmp_path / "s"),
                "--design", str(tampered),
            ]
        )
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err


class TestStatsCommand:
    """The stats subcommand: offline inspection and live snapshots."""

    @pytest.fixture
    def encoded(self, survey_csv, tmp_path):
        reports = tmp_path / "reports.rrw"
        design = tmp_path / "design.json"
        assert main(
            [
                "encode", str(survey_csv), "-o", str(reports),
                "--design", str(design), "--p", "0.7",
                "--columns", "smokes,alcohol,stress",
                "--seed", "11", "--frame-records", "25",
            ]
        ) == 0
        return reports, design

    @pytest.fixture
    def state(self, encoded, tmp_path, capsys):
        reports, design = encoded
        state = tmp_path / "state"
        assert main(
            ["ingest", str(reports), "-s", str(state),
             "--design", str(design), "--checkpoint-every", "8"]
        ) == 0
        capsys.readouterr()
        return state, design

    def test_offline_json_document(self, state, capsys):
        state_dir, _design = state
        assert main(["stats", "-s", str(state_dir)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["journal"]["n_frames"] == 16
        assert document["checkpoint"]["present"] is True
        # offline mode never opens the collector: no live sections
        assert "metrics" not in document
        assert "runtime" not in document

    def test_check_schema_flag(self, state, capsys):
        state_dir, _design = state
        assert main(
            ["stats", "-s", str(state_dir), "--check-schema"]
        ) == 0
        json.loads(capsys.readouterr().out)

    def test_live_snapshot_with_design(self, state, capsys):
        state_dir, design = state
        assert main(
            ["stats", "-s", str(state_dir), "--design", str(design),
             "--check-schema"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counts"]["n_observed"] == 400
        assert document["runtime"]["metrics_enabled"] is True
        counters = document["metrics"]["counters"]
        assert counters["service.recoveries"] == 1
        # recovery replays exactly the journal tail past the checkpoint
        assert counters["journal.replay.frames"] == (
            document["journal"]["n_frames"]
            - document["counts"]["frames_at_checkpoint"]
        )

    def test_prometheus_needs_design(self, state, capsys):
        state_dir, _design = state
        with pytest.raises(SystemExit):
            main(["stats", "-s", str(state_dir), "--format", "prometheus"])

    def test_prometheus_output(self, state, capsys):
        state_dir, design = state
        assert main(
            ["stats", "-s", str(state_dir), "--design", str(design),
             "--format", "prometheus"]
        ) == 0
        text = capsys.readouterr().out
        assert "# TYPE service_recoveries counter" in text
        assert "service_recoveries_total 1" in text

    def test_output_file(self, state, tmp_path, capsys):
        state_dir, _design = state
        out = tmp_path / "health.json"
        assert main(
            ["stats", "-s", str(state_dir), "-o", str(out)]
        ) == 0
        document = json.loads(out.read_text())
        assert document["journal"]["n_frames"] == 16

    def test_refuses_empty_state_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["stats", "-s", str(empty)]) == 1
        assert "no collector state" in capsys.readouterr().err

    def test_csv_named_stats_still_anonymizable(self, tmp_path, capsys):
        # dispatch is by first argument: ./stats routes to the CSV path
        path = tmp_path / "stats"
        path.write_text("a,b\nx,1\ny,2\nx,2\ny,1\n")
        out = tmp_path / "out.csv"
        assert main(
            [str(path), "-o", str(out), "--p", "0.5", "--seed", "3"]
        ) == 0
        assert out.exists()
