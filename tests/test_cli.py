import csv
import dataclasses
import io
import json
from contextlib import redirect_stdout

import pytest

from uppertail import cli
from uppertail.cli import main
from uppertail.families import FamilySpec, build
from uppertail.hypergraph import induced_edge_count, sample_vp
from uppertail.rng import stream_generator


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTail:
    def test_exact_small_example(self):
        code, out = run_cli(
            ["tail", "--family", "ap", "--n", "4", "--k", "3",
             "--p", "0.5", "--t", "0.75", "--method", "exact"]
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["threshold"]) == 1.0
        assert float(rows[0]["p_hat"]) == 0.1875

    def test_grid_cross_product(self):
        code, out = run_cli(
            ["tail", "--family", "schur", "--n", "10",
             "--p", "0.2,0.4", "--t", "1,2,3", "--method", "exact"]
        )
        assert code == 0
        assert len(parse_csv(out)) == 6

    def test_json_lines(self):
        code, out = run_cli(
            ["tail", "--family", "ap", "--n", "4", "--p", "0.5", "--t", "0.75",
             "--method", "exact", "--out", "json"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["p_hat"] == 0.1875

    def test_mc_worker_invariance(self):
        outputs = set()
        for w in ("1", "2", "4"):
            code, out = run_cli(
                ["tail", "--family", "ap", "--n", "20", "--p", "0.3",
                 "--t", "2", "--method", "mc", "--samples", "3000",
                 "--seed", "9", "--workers", w]
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_usage_errors(self):
        assert run_cli(["tail", "--family", "ap"])[0] == 2
        assert run_cli(
            ["tail", "--family", "ap", "--n", "8", "--p", "0.5", "--t", "1",
             "--method", "mc"]
        )[0] == 2
        assert run_cli(
            ["tail", "--family", "ap", "--n", "8", "--p", "1.5", "--t", "1"]
        )[0] == 2

    def test_seed_beyond_64_bits_rejected(self, capsys):
        grid = ["--family", "ap", "--n", "10", "--p", "0.3", "--t", "1",
                "--method", "mc", "--samples", "100"]
        for argv in (
            ["tail"] + grid,
            ["sweep"] + grid,
            ["decompose", "--family", "ap", "--n", "10", "--r", "1.5", "--samples", "2"],
        ):
            assert run_cli(argv + ["--seed", str((1 << 64) - 1)])[0] == 0
            capsys.readouterr()
            for seed in ("18446744073709551616", "-1"):
                code, out = run_cli(argv + ["--seed", seed])
                assert code == 2 and out == "", (argv[0], seed)
                assert seed in capsys.readouterr().err

    def test_capacity_exit_code(self):
        code, _ = run_cli(
            ["tail", "--family", "ap", "--n", "40", "--p", "0.3", "--t", "1"]
        )
        assert code == 1


class TestFamilyAndBounds:
    def test_family_row(self):
        code, out = run_cli(["family", "--family", "schur", "--n", "12"])
        assert code == 0
        row = parse_csv(out)[0]
        assert row["edges"] == "30"
        assert row["k"] == "3"
        assert row["delta_1"] == "10"

    def test_bounds_rows_parse(self):
        code, out = run_cli(
            ["bounds", "--family", "ap", "--n", "10", "--p", "0.2,0.4", "--t", "1,2"]
        )
        assert code == 0
        rows = parse_csv(out)
        tags = {r["tag"] for r in rows}
        assert {"theorem_c", "theorem_c_quadratic", "theorem_c_ratio_log",
                "et", "et_stirling", "exponent_appp", "lb_cluster"} <= tags
        for r in rows:
            float(r["value"])
            json.loads(r["inputs"])

    def test_bounds_chain_order(self):
        _, out = run_cli(
            ["bounds", "--family", "ap", "--n", "10", "--p", "0.3", "--t", "2"]
        )
        rows = {r["tag"]: float(r["value"]) for r in parse_csv(out)}
        assert rows["theorem_c"] <= rows["theorem_c_quadratic"] + 1e-12
        assert rows["theorem_c"] <= rows["theorem_c_ratio_log"] + 1e-12
        assert rows["et"] <= rows["et_stirling"] + 1e-12


class TestDecompose:
    def test_rows_have_consistent_counts(self):
        code, out = run_cli(
            ["decompose", "--family", "ap", "--n", "14", "--p", "0.35",
             "--r", "1.5", "--samples", "8", "--seed", "3"]
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        for row in rows:
            x = int(row["x"])
            xr = int(row["xr"])
            assert xr <= x
            assert int(row["greedy_mr"]) <= int(row["mr"])
            assert row["cascade"] == "na"
            assert row["xr_exact"] == "true"

    def test_cascade_column(self):
        code, out = run_cli(
            ["decompose", "--family", "ap", "--n", "12", "--p", "0.2",
             "--r", "1", "--samples", "5", "--seed", "4",
             "--beta", "0.01", "--gamma", "0.1", "--t", "9"]
        )
        assert code == 0
        for row in parse_csv(out):
            assert row["cascade"] in {"true", "false", "indeterminate"}

    def test_draws_from_seed_stream_zero(self):
        code, out = run_cli(
            ["decompose", "--family", "ap", "--n", "14", "--p", "0.35",
             "--r", "1.5", "--samples", "6", "--seed", "11"]
        )
        assert code == 0
        h = build(FamilySpec("ap", 14, 3))
        rng = stream_generator(11, 0)
        draws = [sample_vp(h, 0.35, rng) for _ in range(6)]
        want = [(str(len(s)), str(induced_edge_count(h, s))) for s in draws]
        assert [(row["vertices"], row["x"]) for row in parse_csv(out)] == want

    def test_requires_r_and_seed(self):
        assert run_cli(
            ["decompose", "--family", "ap", "--n", "10", "--seed", "1"]
        )[0] == 2
        assert run_cli(
            ["decompose", "--family", "ap", "--n", "10", "--r", "1"]
        )[0] == 2


class TestVerifyCommand:
    def test_phi_suite_passes(self):
        code, out = run_cli(["verify", "phi"])
        assert code == 0
        assert "passed 7/7 checks" in out
        assert "FAIL" not in out

    def test_unknown_suite(self):
        assert run_cli(["verify", "granite"])[0] == 2


class TestSweep:
    def test_resume_skips_existing(self, tmp_path):
        out_file = str(tmp_path / "sweep.csv")
        base = ["sweep", "--family", "schur", "--n", "10", "--method", "exact",
                "--t", "1,2", "--out-file", out_file]
        code, _ = run_cli(base + ["--p", "0.2"])
        assert code == 0
        first = parse_csv(open(out_file).read())
        assert len(first) == 2
        code, _ = run_cli(base + ["--p", "0.2,0.4"])
        assert code == 0
        both = parse_csv(open(out_file).read())
        assert len(both) == 4
        # Untouched rows stay byte-identical.
        assert both[:2] == first
        assert all(r["status"] == "ok" for r in both)

    def test_budget_rows(self, tmp_path):
        out_file = str(tmp_path / "sweep_budget.csv")
        code, _ = run_cli(
            ["sweep", "--family", "ap", "--n", "30", "--method", "exact",
             "--p", "0.1", "--t", "1", "--out-file", out_file]
        )
        assert code == 0
        rows = parse_csv(open(out_file).read())
        assert rows[0]["status"] == "budget"
        assert rows[0]["p_hat"] == ""

    def test_planted_without_witness_is_a_row(self, tmp_path):
        out_file = str(tmp_path / "planted.csv")
        argv = ["sweep", "--family", "ap", "--n", "10", "--p", "0.3", "--t", "1,50",
                "--method", "planted", "--samples", "100", "--seed", "1",
                "--out-file", out_file]
        code, out = run_cli(argv)
        assert code == 0
        assert out == f"wrote 2 rows to {out_file}\n"
        rows = parse_csv(open(out_file).read())
        assert [r["status"] for r in rows] == ["ok", "no_witness"]
        assert float(rows[0]["p_hat"]) > 0.0
        assert [rows[1][c] for c in ("threshold", "p_hat", "ci_low", "ci_high")] == [""] * 4
        # The no_witness row is recorded, so a rerun has nothing left to do.
        assert run_cli(argv) == (0, f"wrote 0 rows to {out_file}\n")

    def test_rows_written_before_a_failure_are_kept(self, tmp_path, monkeypatch):
        out_file = str(tmp_path / "partial.csv")
        real = cli._tail_estimate

        def failing(cfg, h, p, t):
            if t == 2.0:
                raise RuntimeError("crash at t = 2")
            return real(cfg, h, p, t)

        monkeypatch.setattr(cli, "_tail_estimate", failing)
        with pytest.raises(RuntimeError):
            run_cli(["sweep", "--family", "ap", "--n", "8", "--method", "exact",
                     "--p", "0.2", "--t", "1,2", "--out-file", out_file])
        rows = parse_csv(open(out_file).read())
        assert [(r["t"], r["status"]) for r in rows] == [("1", "ok")]

    def test_empty_file_gets_the_header(self, tmp_path):
        out_file = tmp_path / "empty.csv"
        out_file.touch()
        argv = ["sweep", "--family", "ap", "--n", "10", "--p", "0.3", "--t", "1,2",
                "--method", "exact", "--out-file", str(out_file)]
        assert run_cli(argv) == (0, f"wrote 2 rows to {out_file}\n")
        assert run_cli(argv) == (0, f"wrote 0 rows to {out_file}\n")
        text = out_file.read_text()
        assert text.splitlines()[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(parse_csv(text)) == 2

    @pytest.mark.parametrize("out", ["csv", "json"])
    @pytest.mark.parametrize("content", ["other format", "not text"])
    def test_file_not_in_the_sweep_format_is_refused(self, out, content, tmp_path, capsys):
        out_file = tmp_path / "other"
        base = ["sweep", "--family", "ap", "--n", "8", "--p", "0.3", "--t", "1",
                "--method", "exact", "--out-file", str(out_file)]
        if content == "not text":
            out_file.write_bytes(b"\xff\xfe\x00\n")
        else:
            assert run_cli(base + ["--out", "json" if out == "csv" else "csv"])[0] == 0
        before = out_file.read_bytes()
        capsys.readouterr()
        assert run_cli(base + ["--out", out]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out-file {out_file}: ") and err.count("\n") == 1, err
        assert out_file.read_bytes() == before

    def test_exact_rows_record_the_subset_count(self, tmp_path):
        out_file = str(tmp_path / "exact.csv")
        grid = ["--family", "ap", "--n", "10", "--p", "0.3", "--t", "1", "--method", "exact"]
        tail = parse_csv(run_cli(["tail"] + grid)[1])
        assert run_cli(["sweep"] + grid + ["--samples", "5", "--out-file", out_file])[0] == 0
        (row,) = parse_csv(open(out_file).read())
        assert row["samples"] == tail[0]["samples"] == "1024"
        # samples and seed do not change an exact row, so a rerun has nothing to do.
        rerun = ["sweep"] + grid + ["--samples", "7", "--seed", "3", "--out-file", out_file]
        assert run_cli(rerun) == (0, f"wrote 0 rows to {out_file}\n")

    def test_stdout_mode(self):
        code, out = run_cli(
            ["sweep", "--family", "ap", "--n", "8", "--method", "exact",
             "--p", "0.2,0.3", "--t", "1,2"]
        )
        assert code == 0
        assert len(parse_csv(out)) == 4


class TestConfigFile:
    def test_defaults_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"family": "ap", "n": 4, "k": 3, "p": [0.5], "t": [0.75]})
        )
        code, out = run_cli(["tail", "--config", str(cfg)])
        assert code == 0
        assert float(parse_csv(out)[0]["p_hat"]) == 0.1875

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"family": "ap", "n": 4, "k": 3, "p": [0.5], "t": [0.75]})
        )
        code, out = run_cli(["tail", "--config", str(cfg), "--t", "1.75"])
        assert code == 0
        assert float(parse_csv(out)[0]["threshold"]) == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        assert run_cli(["tail", "--config", str(cfg)])[0] == 2


class TestOutFile:
    ROWS = {
        "family": ["family", "--family", "schur", "--n", "12"],
        "bounds": ["bounds", "--family", "ap", "--n", "10", "--p", "0.2,0.4", "--t", "1,2"],
        "tail": ["tail", "--family", "ap", "--n", "12", "--p", "0.3", "--t", "1,2",
                 "--method", "mc", "--samples", "500", "--seed", "4", "--workers", "1"],
        "decompose": ["decompose", "--family", "ap", "--n", "14", "--p", "0.35",
                      "--r", "1.5", "--samples", "4", "--seed", "3", "--out", "json"],
    }

    @pytest.mark.parametrize("sub", sorted(ROWS))
    def test_file_gets_the_printed_bytes(self, sub, tmp_path):
        argv = self.ROWS[sub]
        code, printed = run_cli(argv)
        assert code == 0 and printed
        path = tmp_path / "rows.out"
        path.write_text("stale\n" * 50)
        for _ in range(2):  # a rerun overwrites, it does not append
            assert run_cli(argv + ["--out-file", str(path)]) == (0, "")
            assert path.read_bytes() == printed.encode()

    def test_family_bytes(self, tmp_path):
        path = tmp_path / "family.csv"
        assert run_cli(self.ROWS["family"] + ["--out-file", str(path)]) == (0, "")
        assert path.read_text() == (
            "family,n,k,ell,vertices,edges,delta_1,delta_2\nschur,12,3,,12,30,10,2\n"
        )


class TestUsageErrorsExitTwo:
    DECOMPOSE = ["decompose", "--family", "ap", "--n", "8", "--r", "1", "--seed", "1"]
    CASES = {
        "missing config": ["tail", "--config", "{tmp}/missing.json"],
        "unreadable config": ["tail", "--config", "{tmp}"],
        "malformed config": ["tail", "--config", "{tmp}/bad.json"],
        "non-numeric p in config": ["tail", "--config", "{tmp}/px.json"],
        "config flag without a path": ["tail", "--config"],
        "negative n": ["family", "--family", "ap", "--n", "-1"],
        "ap with k = 1": ["tail", "--family", "ap", "--n", "8", "--p", "0.5", "--t", "1", "--k", "1"],
        "decompose p above 1": DECOMPOSE + ["--p", "1.5"],
        "decompose p = 0 with cascade": DECOMPOSE + ["--p", "0", "--beta", "0.1",
                                                     "--gamma", "0.1", "--t", "2"],
        "decompose p = 1 with cascade": DECOMPOSE + ["--p", "1", "--beta", "0.1",
                                                     "--gamma", "0.1", "--t", "2"],
        "decompose p grid": DECOMPOSE + ["--p", "0.3,0.5"],
        "decompose beta out of range": ["decompose", "--family", "ap", "--n", "12", "--p", "0.3",
                                        "--r", "2", "--seed", "1", "--beta", "-1",
                                        "--gamma", "0.1", "--t", "2"],
        "decompose gamma out of range": DECOMPOSE + ["--beta", "0.5", "--gamma", "0.2", "--t", "2"],
        "decompose cascade t not positive": DECOMPOSE + ["--beta", "0.5", "--gamma", "0.1",
                                                         "--t", "0"],
        "unwritable out-file": ["family", "--family", "ap", "--n", "8",
                                "--out-file", "{tmp}/missing/f.csv"],
        "config value of the wrong type": ["tail", "--family", "ap", "--n", "8", "--p", "0.5",
                                           "--t", "1", "--method", "mc", "--seed", "1",
                                           "--config", "{tmp}/list.json"],
        "config float for an int flag": ["tail", "--family", "ap", "--n", "8", "--p", "0.5",
                                         "--t", "1", "--method", "mc", "--seed", "1",
                                         "--config", "{tmp}/float.json"],
        "config null": ["tail", "--family", "ap", "--n", "8", "--p", "0.5", "--t", "1",
                        "--config", "{tmp}/null.json"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_with_one_line(self, case, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{bad")
        (tmp_path / "px.json").write_text(json.dumps({"p": ["x"]}))
        (tmp_path / "list.json").write_text(json.dumps({"samples": [1]}))
        (tmp_path / "float.json").write_text(json.dumps({"samples": 2.5}))
        (tmp_path / "null.json").write_text(json.dumps({"alpha": None}))
        argv = [arg.format(tmp=tmp_path) for arg in self.CASES[case]]
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("sub", sorted(TestOutFile.ROWS) + ["sweep"])
    def test_unwritable_out_file_for_every_row_writer(self, sub, tmp_path, capsys):
        argv = TestOutFile.ROWS.get(sub, ["sweep", "--family", "ap", "--n", "8", "--p", "0.5",
                                          "--t", "1"])
        for target in (tmp_path / "missing" / "f.csv", tmp_path):
            assert run_cli(argv + ["--out-file", str(target)]) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith("error: --out-file ") and err.count("\n") == 1, err

    def test_config_values_go_through_the_flag_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "ap", "n": "4", "p": "0.5", "t": [0.75], "samples": "9"}))
        code, out = run_cli(["tail", "--config", str(cfg)])
        assert code == 0
        assert float(parse_csv(out)[0]["p_hat"]) == 0.1875

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_decompose_p_at_the_ends_without_cascade(self, p):
        code, out = run_cli(self.DECOMPOSE + ["--p", p, "--samples", "2"])
        assert code == 0
        assert [row["vertices"] for row in parse_csv(out)] == ["0" if p == "0" else "8"] * 2


# Every flag dest of every subcommand: the accepted config-file keys.
CONFIG_KEYS = {
    "family": "schur", "n": 9, "k": 3, "ell": 1, "p": [0.25], "t": [2], "method": "mc",
    "samples": 7, "seed": 5, "eps": 0.1, "alpha": 0.2, "workers": 2, "capacity": 2.0,
    "d": 3.0, "r": 1.5, "beta": 0.5, "gamma": 0.1, "cascade_t": 9.0, "out": "json",
    "out_file": "o.csv", "suites": ["phi"],
}
DEFAULTS = {
    "family": None, "p": (), "t": (), "method": "exact", "samples": 10_000, "seed": None,
    "workers": 1, "eps": 0.0, "alpha": None, "capacity": 1.0, "d": 1.0, "r": None,
    "beta": None, "gamma": None, "cascade_t": None, "suites": (), "out": "csv", "out_file": "-",
}
AP8 = FamilySpec("ap", 8)
SCHUR9 = FamilySpec("schur", 9)
FROM_FILE = {"family": SCHUR9, "out": "json", "out_file": "o.csv"}
FROM_FILE_GRID = {**FROM_FILE, "p": (0.25,), "t": (2.0,)}
FROM_FILE_ESTIMATE = {**FROM_FILE_GRID, "method": "mc", "samples": 7, "seed": 5,
                      "eps": 0.1, "alpha": 0.2, "workers": 2}
# (argv, fields that differ from DEFAULTS); UPPERTAIL_WORKERS is 3, "{cfg}" is CONFIG_KEYS.
RESOLVED = [
    (["family", "--family", "ap", "--n", "8"], {"family": AP8}),
    (["bounds", "--family", "ap", "--n", "8", "--p", "0.5", "--t", "1"],
     {"family": AP8, "p": (0.5,), "t": (1.0,)}),
    (["tail", "--family", "ap", "--n", "8", "--p", "0.5", "--t", "1"],
     {"family": AP8, "p": (0.5,), "t": (1.0,), "workers": 3}),
    (["sweep", "--family", "ap", "--n", "8", "--p", "0.5", "--t", "1"],
     {"family": AP8, "p": (0.5,), "t": (1.0,), "workers": 3}),
    (["decompose", "--family", "ap", "--n", "8", "--r", "1", "--seed", "1"],
     {"family": AP8, "p": (0.5,), "samples": 10, "r": 1.0, "seed": 1}),
    (["verify"], {}),
    (["family", "--config", "{cfg}"], FROM_FILE),
    (["bounds", "--config", "{cfg}"], {**FROM_FILE_GRID, "capacity": 2.0, "d": 3.0}),
    (["tail", "--config", "{cfg}"], FROM_FILE_ESTIMATE),
    (["--config", "{cfg}", "sweep"], FROM_FILE_ESTIMATE),
    (["decompose", "--config", "{cfg}"],
     {**FROM_FILE, "p": (0.25,), "samples": 7, "seed": 5, "r": 1.5,
      "beta": 0.5, "gamma": 0.1, "cascade_t": 9.0}),
    (["verify", "--config", "{cfg}"], {"suites": ("phi",)}),
    (["tail", "--config", "{cfg}", "--samples", "11", "--workers", "0", "--n", "5"],
     {**FROM_FILE_ESTIMATE, "family": FamilySpec("schur", 5), "samples": 11, "workers": 3}),
]


class TestResolvedConfig:
    @pytest.fixture
    def resolve(self, tmp_path, monkeypatch):
        """argv -> the RunConfig fields main() hands to run(), or None if it never did."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CONFIG_KEYS))
        monkeypatch.setenv("UPPERTAIL_WORKERS", "3")

        def resolve(argv):
            seen = []
            monkeypatch.setattr(cli, "run", lambda config, stream=None: seen.append(config) or 0)
            assert main([arg.format(cfg=cfg_path) for arg in argv]) == 0
            return {f.name: getattr(seen[0], f.name) for f in dataclasses.fields(seen[0])}

        return resolve

    @pytest.mark.parametrize("argv, changed", RESOLVED, ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_fields(self, resolve, argv, changed):
        want = {"subcommand": next(a for a in argv if a in cli.build_parser().subparsers)}
        want.update(DEFAULTS)
        want.update(changed)
        assert resolve(argv) == want

    def test_accepted_config_keys(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda config, stream=None: 0)
        path = tmp_path / "one.json"
        for key, value in CONFIG_KEYS.items():
            path.write_text(json.dumps({key: value}))
            assert main(["--config", str(path), "verify"]) == 0, key
        for key in ("help", "config", "subcommand", "p_grid", "t_grid", "out_format",
                    "out-file", "cascade-t", "frobnicate"):
            path.write_text(json.dumps({key: 1}))
            assert main(["--config", str(path), "verify"]) == 2, key
            assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["family", "bounds", "tail", "decompose", "verify", "sweep"])
def test_subcommand_help(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: uppertail {sub}")
