import csv
import dataclasses
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from shared_log import SharedLog

from uppertail import cli, estimate
from uppertail.bounds import et_bound, exponent_hg, theorem_c_bound
from uppertail.cli import main
from uppertail.decompose import mr_exact, xr_or_lower
from uppertail.families import FamilySpec, build
from uppertail.hypergraph import CapacityError, induced_edge_count, sample_vp
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

    def test_zero_hits_report_zero_ci_low(self):
        # No conditioned sample meets the threshold; the exact tail is 1.5e-23,
        # so a rounding residue in ci_low (it was 6.0e-19) overstates it.
        code, out = run_cli(
            ["tail", "--family", "ap", "--n", "20", "--k", "3", "--p", "0.01",
             "--t", "30", "--method", "conditioned", "--samples", "142",
             "--seed", "1", "--eps", "0", "--workers", "1"]
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_hat"]) == 0.0 and row["ci_low"] == "0"

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
        # CSV prints floats with %.17g, JSON with the shortest repr that reads back.
        argv = ["tail", "--family", "ap", "--n", "4", "--p", "0.1", "--t", "0.75", "--method", "exact"]
        assert run_cli(argv)[1].splitlines()[1] == (
            "ap,4,3,0.10000000000000001,0.752,exact,0.0019000000000000004,"
            "0.0019000000000000004,0.0019000000000000004,16,"
        )
        assert run_cli(argv + ["--out", "json"])[1] == (
            '{"ci_high":0.0019000000000000004,"ci_low":0.0019000000000000004,"family":"ap",'
            '"k":3,"method":"exact","n":4,"p":0.1,"p_hat":0.0019000000000000004,"samples":16,'
            '"seed":null,"threshold":0.752}\n'
        )

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

    @pytest.mark.parametrize("method", ["planted", "conditioned"])
    def test_certified_worker_invariance(self, method):
        outputs = set()
        for w in ("1", "2"):
            code, out = run_cli(
                ["tail", "--family", "ap", "--n", "40", "--p", "0.2", "--t", "2",
                 "--method", method, "--samples", "5000", "--seed", "9", "--workers", w]
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("grid", [["--t", "1e-17"], ["--t", "1", "--alpha", "1e-17"]])
    def test_planted_alpha_below_rounding_gives_a_row(self, grid):
        code, out = run_cli(
            ["tail", "--family", "ap", "--n", "20", "--p", "0.5", *grid,
             "--method", "planted", "--seed", "1", "--samples", "10"]
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["method"] == "planted"

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

    def test_family_past_the_edge_budget(self, capsys):
        """AP(20000,3) has 99,990,000 edges, and AP(10^6, 5 * 10^5) 500,003
        edges of 500,000 vertices (a 1.8 TiB array): both are refused before
        any array exists."""
        assert run_cli(["family", "--family", "ap", "--n", "20000"]) == (1, "")
        assert capsys.readouterr().err == "error: 99990000 edges exceed budget 4194304\n"
        argv = ["family", "--family", "ap", "--n", "1000000", "--k", "500000"]
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == "error: 500003 edges exceed budget 25\n"

    def test_each_bound_family_is_one_call_in_row_order(self):
        # One call per family returns every form, in the order the CLI writes
        # its rows, and every report carries that call's inputs.
        _, out = run_cli(["bounds", "--family", "ap", "--n", "12", "--p", "0.4", "--t", "2",
                          "--capacity", "2"])
        rows = [(r["tag"], float(r["value"]), json.loads(r["inputs"])) for r in parse_csv(out)]
        tags = [tag for tag, _, _ in rows]
        assert tags == ["theorem_c", "theorem_c_quadratic", "theorem_c_ratio_log", "et", "et_stirling",
                        "exponent_appp", "exponent_ap", "exponent_apt", "exponent_hg",
                        "exponent_hg_remark", "lb_cluster"]
        inputs = {tag: args for tag, _, args in rows}
        for first, call in (("theorem_c", theorem_c_bound), ("et", et_bound)):
            reports = call(**inputs[first])
            i = tags.index(first)
            assert [(r.tag, r.log_value, r.inputs) for r in reports] == rows[i:i + len(reports)]
            assert all(r.inputs == inputs[first] for r in reports)
        i = tags.index("exponent_hg")
        assert [(tag, value) for tag, value, _ in rows[i:i + 2]] == list(
            zip(("exponent_hg", "exponent_hg_remark"), exponent_hg(**inputs["exponent_hg"]))
        )

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

    def test_ell_far_past_int64_gives_the_empty_family(self):
        for ell in ("6148914691236517207", "100000000000000000000"):
            code, out = run_cli(["family", "--family", "ell_sum", "--n", "10", "--ell", ell])
            assert code == 0
            assert parse_csv(out)[0]["edges"] == "0"

    def test_bounds_at_t_past_float_squares(self):
        code, out = run_cli(["bounds", "--family", "ap", "--n", "10", "--p", "0.5",
                             "--t", "1e155,1e306"])
        assert code == 0
        rows = {(r["t"], r["tag"]): float(r["value"]) for r in parse_csv(out)}
        assert rows["1e+155", "theorem_c_quadratic"] == pytest.approx(-1.5e155)
        assert rows["1e+306", "et"] == -math.inf

    def test_bounds_at_capacity_past_float_products(self):
        # x * C overflows, so the Stirling form's quotient is 0.
        code, out = run_cli(["bounds", "--family", "ap", "--n", "10", "--p", "0.3",
                             "--t", "1", "--capacity", "1e308"])
        assert code == 0
        rows = {r["tag"]: float(r["value"]) for r in parse_csv(out)}
        assert not any(math.isnan(v) for v in rows.values())
        assert rows["et"] <= rows["et_stirling"] < -1000.0

    @pytest.mark.parametrize("p, t", [("1e-37", "1e200"), ("3e-104", "1")])
    def test_bounds_where_t_over_mu_overflows(self, p, t):
        # t / mu is inf, and so was phi(t / mu); the rows read logs instead.
        code, out = run_cli(["bounds", "--family", "ap", "--n", "20", "--p", p, "--t", t])
        assert code == 0
        rows = {r["tag"]: float(r["value"]) for r in parse_csv(out)}
        assert "exponent_ap" not in rows  # its eps = t / mu is not finite
        assert all(math.isfinite(v) for v in rows.values())
        assert rows["theorem_c"] <= rows["theorem_c_quadratic"]
        assert rows["theorem_c"] <= rows["theorem_c_ratio_log"]
        assert rows["et"] <= rows["et_stirling"]

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

    @pytest.mark.parametrize("kind", ["ap", "schur"])
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
    def test_rows_equal_the_vertex_set_forms(self, kind, r):
        code, out = run_cli(
            ["decompose", "--family", kind, "--n", "24", "--p", "0.6",
             "--r", str(r), "--samples", "12", "--seed", "5"]
        )
        assert code == 0
        h = build(FamilySpec(kind, 24))
        rng = stream_generator(5, 0)
        want = []
        for _ in range(12):
            s = sample_vp(h, 0.6, rng)
            xr, exact = xr_or_lower(h, s, r)
            try:
                mr = str(mr_exact(h, s, r))
            except CapacityError:
                mr = "budget"
            want.append((str(induced_edge_count(h, s)), str(xr), str(exact).lower(), mr))
        rows = parse_csv(out)
        assert [(row["x"], row["xr"], row["xr_exact"], row["mr"]) for row in rows] == want
        # Both branches of xr_or_lower are read: the exact search and the pruned bound.
        assert {row["xr_exact"] for row in rows} == {"true", "false"}

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

    def test_repeated_suite_runs_once(self):
        assert run_cli(["verify", "phi", "phi"]) == run_cli(["verify", "phi"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_output_is_the_pinned_file_at_any_worker_count(self, workers):
        pinned = (Path(__file__).parent / "data" / "verify_stdout.txt").read_text(encoding="utf-8")
        assert run_cli(["verify", "--workers", workers]) == (0, pinned)


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

        def failing(cfg, h, hist, p, t):
            if t == 2.0:
                raise RuntimeError("crash at t = 2")
            return real(cfg, h, hist, p, t)

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

    # One change of flag per SWEEP_KEY column besides p and t; method twice,
    # since exact rows and sampled rows already differ in their key's length.
    EXACT = ["--method", "exact"]
    MC = ["--method", "mc", "--samples", "100", "--seed", "1"]
    KEY_CHANGES = {
        "family": ("family", EXACT, ["--family", "schur"]),
        "n": ("n", EXACT, ["--n", "11"]),
        "k": ("k", EXACT, ["--k", "4"]),
        "method exact to mc": ("method", EXACT + ["--samples", "100", "--seed", "1"],
                               ["--method", "mc"]),
        "method mc to planted": ("method", MC, ["--method", "planted"]),
        "samples": ("samples", MC, ["--samples", "101"]),
        "seed": ("seed", MC, ["--seed", "2"]),
    }

    def test_key_changes_cover_every_key_column(self):
        columns = {column for column, _, _ in self.KEY_CHANGES.values()}
        assert columns | {"p", "t"} == set(cli.SWEEP_KEY)

    @pytest.mark.parametrize("case", sorted(KEY_CHANGES))
    def test_every_key_column_matters(self, case, tmp_path):
        column, flags, change = self.KEY_CHANGES[case]
        out_file = str(tmp_path / "sweep.csv")
        argv = ["sweep", "--family", "ap", "--n", "10", "--k", "3", "--p", "0.3", "--t", "1",
                *flags, "--out-file", out_file]
        assert run_cli(argv) == (0, f"wrote 1 rows to {out_file}\n")
        assert run_cli(argv + change) == (0, f"wrote 1 rows to {out_file}\n")
        first, second = parse_csv(open(out_file).read())
        assert first[column] != second[column]
        assert run_cli(argv + change) == (0, f"wrote 0 rows to {out_file}\n")

    def test_stdout_mode(self):
        code, out = run_cli(
            ["sweep", "--family", "ap", "--n", "8", "--method", "exact",
             "--p", "0.2,0.3", "--t", "1,2"]
        )
        assert code == 0
        assert len(parse_csv(out)) == 4


def spy_enumerations(monkeypatch) -> list:
    """Vertex counts of every exact subset enumeration the command completes."""
    calls = []
    kernel = estimate._subset_histogram

    def spy(n, masks, workers=1, groups=()):
        hist = kernel(n, masks, workers, groups)
        calls.append(n)
        return hist

    monkeypatch.setattr(estimate, "_subset_histogram", spy)
    return calls


class TestHeldHistogram:
    """tail and sweep enumerate at most once per command, and only for an exact row."""

    GRID = ["--p", "0.1,0.2,0.3,0.4,0.5", "--t", "0,1,2,3,4", "--method", "exact"]

    def test_exact_tail_grid_enumerates_once(self, monkeypatch):
        calls = spy_enumerations(monkeypatch)
        code, out = run_cli(["tail", "--family", "ap", "--n", "12", "--workers", "2"] + self.GRID)
        assert code == 0 and len(parse_csv(out)) == 25
        assert calls == [12]

    def test_resumed_exact_sweep_enumerates_nothing(self, tmp_path, monkeypatch):
        out_file = str(tmp_path / "sweep.csv")
        argv = ["sweep", "--family", "schur", "--n", "11", "--out-file", out_file] + self.GRID
        calls = spy_enumerations(monkeypatch)
        assert run_cli(argv) == (0, f"wrote 25 rows to {out_file}\n")
        assert calls == [11]
        assert run_cli(argv) == (0, f"wrote 0 rows to {out_file}\n")
        assert calls == [11]

    def test_above_the_vertex_budget(self, tmp_path, monkeypatch, capsys):
        calls = spy_enumerations(monkeypatch)
        family = ["--family", "ap", "--n", "27", "--p", "0.1,0.2", "--t", "1,2", "--method", "exact"]
        assert run_cli(["tail"] + family) == (1, "")
        assert "exceed budget" in capsys.readouterr().err
        out_file = str(tmp_path / "sweep.csv")
        assert run_cli(["sweep"] + family + ["--out-file", out_file]) == (
            0, f"wrote 4 rows to {out_file}\n"
        )
        rows = parse_csv(open(out_file).read())
        assert [r["status"] for r in rows] == ["budget"] * 4
        assert {r["samples"] for r in rows} == {str(1 << 27)}
        assert calls == []

    def test_above_the_sampler_budget(self, tmp_path, monkeypatch, capsys):
        # One chunk of 2000 samples over 40 vertices needs 400,000 bytes.
        monkeypatch.setattr(estimate, "SAMPLER_BYTE_BUDGET", 399_999)
        calls = spy_draws(monkeypatch)
        family = ["--family", "ap", "--n", "40", "--p", "0.1,0.2", "--t", "1,2", "--samples", "2000",
                  "--seed", "1"]
        for method in ("mc", "planted", "conditioned"):
            grid = family + ["--method", method]
            assert run_cli(["tail"] + grid) == (1, "")
            assert "over budget 399999" in capsys.readouterr().err
            out_file = str(tmp_path / f"{method}.csv")
            assert run_cli(["sweep"] + grid + ["--out-file", out_file]) == (
                0, f"wrote 4 rows to {out_file}\n"
            )
            assert [r["status"] for r in parse_csv(open(out_file).read())] == ["budget"] * 4
        assert calls == []


def spy_draws(monkeypatch) -> SharedLog:
    """(draw, p or m, count) of every chunk of vertex sets a sampler draws, in
    the command's process or in a worker it forked."""
    calls = SharedLog()
    for name, draw in (("p", estimate.p_subset_members), ("m", estimate.m_subset_members)):

        def spy(gen, n, arg, *rest, name=name, draw=draw):
            calls.append((name, arg if name == "m" else rest[0], rest[-1]))
            return draw(gen, n, arg, *rest)

        monkeypatch.setattr(estimate, f"{name}_subset_members", spy)
    return calls


class TestHeldSamples:
    """tail and sweep draw each Monte Carlo sample set at most once per command
    and draw key, and its rows equal the single-(p, t) commands'."""

    FAMILY = ["--family", "ap", "--n", "40", "--seed", "5", "--samples", "5000", "--workers", "2"]
    CHUNKS = [4096, 904]  # the chunk sizes of 5000 samples

    def single_rows(self, argv, ps, ts):
        rows = []
        for p in ps:
            for t in ts:
                code, out = run_cli(argv + ["--p", p, "--t", t])
                assert code == 0
                header, row = out.splitlines()
                rows.append(row)
        return header, rows

    @pytest.mark.parametrize("method, key", [("mc", [0.2, 0.3]), ("conditioned", [10, 15])])
    def test_tail_grid_draws_once_per_p(self, monkeypatch, method, key):
        argv = ["tail", "--method", method, "--eps", "0.25"] + self.FAMILY
        calls = spy_draws(monkeypatch)
        code, out = run_cli(argv + ["--p", "0.2,0.3", "--t", "1,2,4"])
        assert code == 0
        draw = "m" if method == "conditioned" else "p"
        assert sorted(calls) == [(draw, k, c) for k in key for c in sorted(self.CHUNKS)]
        header, rows = self.single_rows(argv, ["0.2", "0.3"], ["1", "2", "4"])
        assert out.splitlines() == [header] + rows

    def test_planted_grid_rows_equal_single_t(self, monkeypatch):
        argv = ["tail", "--method", "planted"] + self.FAMILY
        ts = ["0.5", "1", "2", "4", "8"]
        calls = spy_draws(monkeypatch)
        code, out = run_cli(argv + ["--p", "0.2", "--t", ",".join(ts)])
        assert code == 0
        grid_draws = len(calls)
        # Two of the t values plant one witness, so 5 rows read 4 passes.
        assert grid_draws == 4 * len(self.CHUNKS)
        header, rows = self.single_rows(argv, ["0.2"], ts)
        assert out.splitlines() == [header] + rows
        assert len(calls) == grid_draws + 5 * len(self.CHUNKS)

    def test_resumed_mc_sweep_draws_once(self, tmp_path, monkeypatch):
        out_file = str(tmp_path / "sweep.csv")
        argv = ["sweep", "--method", "mc", "--p", "0.2", "--out-file", out_file] + self.FAMILY
        assert run_cli(argv + ["--t", "1,2"]) == (0, f"wrote 2 rows to {out_file}\n")
        calls = spy_draws(monkeypatch)
        assert run_cli(argv + ["--t", "1,2,4"]) == (0, f"wrote 1 rows to {out_file}\n")
        assert sorted(calls) == [("p", 0.2, c) for c in sorted(self.CHUNKS)]
        assert run_cli(argv + ["--t", "1,2,4"]) == (0, f"wrote 0 rows to {out_file}\n")
        assert sorted(calls) == [("p", 0.2, c) for c in sorted(self.CHUNKS)]


class TestSweepResume:
    """A run killed mid-write leaves a partial last line; the resume cuts it off."""

    ARGV = ["sweep", "--family", "ap", "--n", "8", "--p", "0.2,0.35", "--t", "1,2",
            "--method", "exact"]

    def full_run(self, out, path) -> bytes:
        assert run_cli(self.ARGV + ["--out", out, "--out-file", str(path)])[0] == 0
        return path.read_bytes()

    @pytest.mark.parametrize("out", ["csv", "json"])
    def test_cut_at_every_byte_of_the_last_row(self, out, tmp_path, capsys):
        path = tmp_path / f"sweep.{out}"
        full = self.full_run(out, path)
        start = full.rstrip(b"\n").rfind(b"\n") + 1
        argv = self.ARGV + ["--out", out, "--out-file", str(path)]
        for cut in range(start, len(full)):
            path.write_bytes(full[:cut])
            capsys.readouterr()
            assert run_cli(argv) == (0, f"wrote 1 rows to {path}\n"), cut
            assert path.read_bytes() == full, cut
            err = capsys.readouterr().err
            assert err.count("partial last line") == (cut > start), (cut, err)

    @pytest.mark.parametrize("out", ["csv", "json"])
    def test_cut_inside_the_first_line(self, out, tmp_path, capsys):
        path = tmp_path / f"sweep.{out}"
        full = self.full_run(out, path)
        first = full.find(b"\n")
        argv = self.ARGV + ["--out", out, "--out-file", str(path)]
        for cut in (1, first // 2, first):
            path.write_bytes(full[:cut])
            assert run_cli(argv) == (0, f"wrote 4 rows to {path}\n"), cut
            assert path.read_bytes() == full, cut
        assert capsys.readouterr().err.count("partial last line") == 3

    @pytest.mark.parametrize("out", ["csv", "json"])
    @pytest.mark.parametrize("content", [b"notes without a newline", b"x\n{partial"])
    def test_other_files_are_not_cut(self, out, content, tmp_path, capsys):
        path = tmp_path / "other"
        path.write_bytes(content)
        argv = self.ARGV + ["--out", out, "--out-file", str(path)]
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: --out-file {path}: not a ")
        assert path.read_bytes() == content

    def test_malformed_complete_row_is_refused(self, tmp_path, capsys):
        # A partial row with the next row glued on, as resumes used to leave it.
        path = tmp_path / "sweep.csv"
        lines = self.full_run("csv", path).decode().splitlines(keepends=True)
        glued = "".join(lines[:-2]) + lines[-2][:-30] + lines[-1]
        path.write_text(glued)
        assert run_cli(self.ARGV + ["--out-file", str(path)]) == (2, "")
        assert "not a csv sweep file" in capsys.readouterr().err
        assert path.read_text() == glued


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

    TAIL = ["--family", "ap", "--n", "8", "--p", "0.3"]
    OUT_OF_RANGE = {
        "t nan": ["tail"] + TAIL + ["--t", "nan"],
        "t inf": ["sweep"] + TAIL + ["--t", "1,inf"],
        "t -inf": ["bounds"] + TAIL + ["--t=-inf"],
        "alpha 0": ["sweep"] + TAIL + ["--t", "1", "--method", "planted", "--seed", "1",
                                       "--alpha", "0"],
        "alpha above 1": ["tail"] + TAIL + ["--t", "1", "--method", "planted", "--seed", "1",
                                            "--alpha", "1.5"],
        "eps negative": ["tail"] + TAIL + ["--t", "1", "--method", "conditioned", "--seed", "1",
                                           "--eps", "-0.5"],
        "capacity 0": ["bounds"] + TAIL + ["--t", "1", "--capacity", "0"],
        "capacity negative": ["bounds"] + TAIL + ["--t", "1", "--capacity", "-2"],
        "d negative": ["bounds"] + TAIL + ["--t", "1", "--d", "-1"],
        "bounds t 0": ["bounds"] + TAIL + ["--t", "0"],
        "bounds t negative": ["bounds"] + TAIL + ["--t", "2,-1"],
        "conditioned m above n": ["tail", "--family", "ap", "--n", "10", "--p", "0.9", "--t", "1",
                                  "--method", "conditioned", "--seed", "1", "--eps", "0.5"],
        "conditioned m above n in a sweep": ["sweep", "--family", "ap", "--n", "10",
                                             "--p", "0.5,0.9", "--t", "1", "--method",
                                             "conditioned", "--seed", "1", "--eps", "0.5",
                                             "--samples", "100"],
        "conditioned m overflows": ["tail", "--family", "ap", "--n", "10", "--p", "0.3", "--t", "1",
                                    "--method", "conditioned", "--seed", "1", "--samples", "3",
                                    "--eps", "1e308"],
        "conditioned m overflows in a sweep": ["sweep", "--family", "ap", "--n", "10", "--p", "0.3",
                                               "--t", "1", "--method", "conditioned", "--seed", "1",
                                               "--samples", "3", "--eps", "1e308"],
        # The later --r wins.
        "decompose r inf": DECOMPOSE + ["--r", "inf"],
        "decompose r nan": DECOMPOSE + ["--r", "nan"],
        "cascade t nan": DECOMPOSE + ["--beta", "0.5", "--gamma", "0.1", "--t", "nan"],
        "cascade t inf": DECOMPOSE + ["--beta", "0.5", "--gamma", "0.1", "--t", "inf"],
    }

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_out_of_range_value_before_any_file_opens(self, case, tmp_path, capsys):
        out_file = tmp_path / "rows.csv"
        argv = self.OUT_OF_RANGE[case] + ["--out-file", str(out_file)]
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out_file.exists()

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
# (argv, fields that differ from DEFAULTS); the cpu count is 3, "{cfg}" is CONFIG_KEYS.
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
    (["verify"], {"workers": 3}),
    (["family", "--config", "{cfg}"], FROM_FILE),
    (["bounds", "--config", "{cfg}"], {**FROM_FILE_GRID, "capacity": 2.0, "d": 3.0}),
    (["tail", "--config", "{cfg}"], FROM_FILE_ESTIMATE),
    (["--config", "{cfg}", "sweep"], FROM_FILE_ESTIMATE),
    (["decompose", "--config", "{cfg}"],
     {**FROM_FILE, "p": (0.25,), "samples": 7, "seed": 5, "r": 1.5,
      "beta": 0.5, "gamma": 0.1, "cascade_t": 9.0}),
    (["verify", "--config", "{cfg}"], {"suites": ("phi",), "workers": 2}),
    (["tail", "--config", "{cfg}", "--samples", "11", "--workers", "0", "--n", "5"],
     {**FROM_FILE_ESTIMATE, "family": FamilySpec("schur", 5), "samples": 11, "workers": 3}),
]


class TestResolvedConfig:
    @pytest.fixture
    def resolve(self, tmp_path, monkeypatch):
        """argv -> the RunConfig fields main() hands to run(), or None if it never did."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CONFIG_KEYS))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)

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
