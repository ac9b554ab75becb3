"""Tests for the CLI and the paperkit bundle exporter."""

import csv
import hashlib
import io
import os

import pytest

from repro.cli import build_parser, main
from repro.core.study import GovernmentDnsStudy
from repro.report.paperkit import ARTIFACTS, export_all, render_all
from repro.worldgen import WorldConfig, WorldGenerator


def bundle_digest(directory):
    """sha256 over each file's name then bytes, in sorted name order
    (the benchmark's paperkit digest)."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


# Bundle digests at scale 0.004.  Any change to an analysis or renderer
# that moves a byte of any artifact changes these.
PINNED_BUNDLES = {
    5: "3aad6d1dcc7be6ddfa118da038f08e27d0cf7365c904367bf5ffded3e2a28547",
    7: "7a9ea1dc725e0dbc07d14a92fd7b79d3ed0c9b7ab91edeb86873495e9edb8716",
    11: "cc77e2f98bb3a58f9d816f623eb069b19eb238b158972b1a3b0e116d887b7067",
}


class TestPaperkit:
    @pytest.fixture(scope="class")
    def rendered(self, study):
        return render_all(study)

    def test_every_artifact_rendered(self, rendered):
        assert set(rendered) == set(ARTIFACTS)
        for artifact, text in rendered.items():
            assert text.strip(), artifact

    def test_titles_name_the_right_artifact(self, rendered):
        assert "Figure 2" in rendered["fig02"]
        assert "Figure 9" in rendered["fig09"]
        assert "Table I " in rendered["tab1"]
        assert "Table II " in rendered["tab2"]
        assert "Table III" in rendered["tab3"]
        assert "Figure 13" in rendered["fig13"]

    def test_export_writes_txt_and_csv(self, study, tmp_path):
        written = export_all(study, str(tmp_path / "kit"))
        assert set(written) == set(ARTIFACTS)
        for artifact, (txt_path, csv_path) in written.items():
            text = open(txt_path).read()
            assert text.strip()
            with open(csv_path) as handle:
                rows = list(csv.reader(handle))
            assert len(rows) >= 1  # header always present
            header = rows[0]
            assert all(header), artifact

    def test_csv_fig02_matches_analysis(self, study, tmp_path):
        written = export_all(study, str(tmp_path / "kit"))
        with open(written["fig02"][1]) as handle:
            rows = list(csv.reader(handle))[1:]
        fig2 = study.pdns_replication().figure2()
        assert len(rows) == len(fig2)
        for year_text, domains_text, countries_text in rows:
            year = int(year_text)
            assert fig2[year] == (int(domains_text), int(countries_text))


class TestPinnedBundle:
    def test_session_study_bundle(self, study, tmp_path):
        export_all(study, str(tmp_path))
        assert bundle_digest(str(tmp_path)) == PINNED_BUNDLES[7]

    @pytest.mark.parametrize("seed", [5, 11])
    def test_fresh_world_bundle(self, seed, tmp_path):
        world = WorldGenerator(WorldConfig(seed=seed, scale=0.004)).generate()
        export_all(GovernmentDnsStudy(world), str(tmp_path))
        assert bundle_digest(str(tmp_path)) == PINNED_BUNDLES[seed]


class TestCliParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("headline", "paperkit", "audit", "hijackscan", "remediate"):
            args = parser.parse_args(
                [command] + (["XX"] if command == "audit" else [])
                + (["/tmp/x"] if command == "paperkit" else [])
            )
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["headline"])
        assert args.seed == 7
        assert args.scale == 0.02

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliExecution:
    SMALL = ["--scale", "0.002", "--seed", "11"]

    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_headline(self):
        code, text = self.run_cli(self.SMALL + ["headline"])
        assert code == 0
        assert "98.4%" in text  # the paper column
        assert "Measured" in text

    def test_audit_known_country(self):
        code, text = self.run_cli(self.SMALL + ["audit", "cn"])
        assert code == 0
        assert "d_gov: gov.cn." in text

    def test_audit_unknown_country(self):
        code, text = self.run_cli(self.SMALL + ["audit", "zz"])
        assert code == 1

    def test_hijackscan(self):
        code, text = self.run_cli(self.SMALL + ["hijackscan"])
        assert code == 0
        assert "registrable" in text or "no registrable" in text

    def test_paperkit(self, tmp_path):
        outdir = str(tmp_path / "artifacts")
        code, text = self.run_cli(self.SMALL + ["paperkit", outdir])
        assert code == 0
        assert "15 artifacts" in text

    def test_remediate(self):
        code, text = self.run_cli(self.SMALL + ["remediate"])
        assert code == 0
        assert "any defective" in text


class TestCliCampaign:
    SMALL = ["--scale", "0.002", "--seed", "11"]

    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @staticmethod
    def digest_line(text):
        lines = [
            line for line in text.splitlines()
            if line.startswith("dataset-digest:")
        ]
        assert len(lines) == 1
        return lines[0]

    def test_campaign_prints_digest_and_counters(self):
        code, text = self.run_cli(self.SMALL + ["campaign"])
        assert code == 0
        assert self.digest_line(text)
        assert "retransmits" in text

    def test_campaign_chaos_is_reproducible(self, tmp_path):
        code, first = self.run_cli(self.SMALL + ["campaign", "--chaos", "flaky"])
        assert code == 0
        code, second = self.run_cli(
            self.SMALL + [
                "campaign", "--chaos", "flaky",
                "--resilience-out", str(tmp_path / "res.json"),
            ]
        )
        assert code == 0
        assert self.digest_line(first) == self.digest_line(second)
        assert (tmp_path / "res.json").exists()

    def test_campaign_kill_then_resume_matches(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, baseline = self.run_cli(self.SMALL + ["campaign"])
        assert code == 0
        code, killed = self.run_cli(
            self.SMALL + [
                "campaign", "--journal", journal, "--kill-at-event", "400",
            ]
        )
        assert code == 0
        assert "campaign killed" in killed
        code, resumed = self.run_cli(
            self.SMALL + ["campaign", "--resume", journal]
        )
        assert code == 0
        assert self.digest_line(resumed) == self.digest_line(baseline)

    def test_campaign_resume_wrong_seed_is_refused(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, _ = self.run_cli(
            self.SMALL + [
                "campaign", "--journal", journal, "--kill-at-event", "400",
            ]
        )
        assert code == 0
        code, text = self.run_cli(
            ["--scale", "0.002", "--seed", "12", "campaign", "--resume", journal]
        )
        assert code == 2
        assert "campaign mismatch" in text

    def test_journal_and_resume_mutually_exclusive(self, tmp_path):
        code, text = self.run_cli(
            self.SMALL + [
                "campaign",
                "--journal", str(tmp_path / "a.jsonl"),
                "--resume", str(tmp_path / "b.jsonl"),
            ]
        )
        assert code == 2
        assert "mutually exclusive" in text

    def test_unknown_chaos_profile_rejected(self):
        # Rejection moved from argparse choices= into the command so
        # that `--chaos list` can print the profile catalogue.
        code, text = self.run_cli(["campaign", "--chaos", "meteor"])
        assert code == 2
        assert "meteor" in text
