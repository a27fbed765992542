import numpy as np
import pytest

from commselect import (ClassLabel, GenParams, SweepConfig, collect_networks,
                        report_selection, run_sweep, train_eval)
from commselect.harness import (ALGORITHM_ORDER, DETAIL_COLUMNS,
                                aggregate_rows, read_detail_csv, rows_to_csv,
                                write_detail_csv)
from commselect.cli import main
from test_selector import manual_model

BASE = GenParams(n=48, mu_t=0.0, mu_w=0.0, avg_k=8.0, k_max=16, s_min=12,
                 s_max=24)


def tiny_sweep(**overrides):
    kwargs = dict(base=BASE, mu_t_grid=(0.3,), mu_w_grid=(0.2,), reps=1,
                  algorithms=("copra_uw",), master_seed=7, workers=1)
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


class TestSweep:
    def test_row_count_contract(self):
        rows = run_sweep(tiny_sweep())
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert 0.0 <= rows[0]["nmi"] <= 1.0

    def test_row_count_full_grid(self):
        cfg = tiny_sweep(mu_t_grid=(0.3, 0.4), mu_w_grid=(0.2,), reps=2,
                         algorithms=("copra_uw", "infomap_w"))
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 1 * 2 * 2
        for r in rows:
            assert r["status"] == "ok"

    def test_deterministic_rerun(self, tmp_path):
        cfg = tiny_sweep(mu_t_grid=(0.3, 0.4), reps=2,
                         algorithms=("copra_uw", "copra_w"))
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert rows_to_csv(a, DETAIL_COLUMNS) == rows_to_csv(b, DETAIL_COLUMNS)

    def test_csv_roundtrip(self, tmp_path):
        rows = run_sweep(tiny_sweep(reps=2, algorithms=("copra_uw", "infomap_uw")))
        path = tmp_path / "detail.csv"
        write_detail_csv(rows, path)
        back = read_detail_csv(path)
        assert len(back) == len(rows)
        assert back[0]["algorithm"] == rows[0]["algorithm"]
        assert back[0]["nmi"] == pytest.approx(rows[0]["nmi"], rel=1e-8)

    def test_aggregates(self):
        rows = [
            {"mu_t": 0.1, "mu_w": 0.1, "rep": 0, "algorithm": "copra_uw",
             "status": "ok", "nmi": 0.5},
            {"mu_t": 0.1, "mu_w": 0.1, "rep": 1, "algorithm": "copra_uw",
             "status": "ok", "nmi": 1.0},
            {"mu_t": 0.1, "mu_w": 0.1, "rep": 2, "algorithm": "copra_uw",
             "status": "failed:topology", "nmi": None},
        ]
        agg = aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0]["n"] == 2
        assert agg[0]["nmi_mean"] == pytest.approx(0.75)
        assert agg[0]["nmi_std"] == pytest.approx(np.std([0.5, 1.0], ddof=1))

    def test_workers_do_not_change_results(self):
        cfg_serial = tiny_sweep(reps=2)
        cfg_parallel = tiny_sweep(reps=2, workers=2)
        assert (rows_to_csv(run_sweep(cfg_serial), DETAIL_COLUMNS)
                == rows_to_csv(run_sweep(cfg_parallel), DETAIL_COLUMNS))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_sweep(mu_t_grid=())
        with pytest.raises(ValueError):
            tiny_sweep(mu_t_grid=(1.5,))
        with pytest.raises(ValueError):
            tiny_sweep(algorithms=("louvain",))
        with pytest.raises(ValueError):
            tiny_sweep(reps=0)


def synth_rows(n_per_cell=6, cells=((0.1, 0.1), (0.5, 0.5), (0.8, 0.8))):
    """Fabricated detail rows with well-separated features per true class."""
    rng = np.random.default_rng(5)
    rows = []
    for mu_t, mu_w in cells:
        for rep in range(n_per_cell):
            if mu_t < 0.3:        # unweighted regime
                feats = (0.75 + rng.uniform(-0.03, 0.03),
                         0.70 + rng.uniform(-0.03, 0.03))
                scores = {"copra_uw": 0.95, "infomap_uw": 0.9,
                          "copra_w": 0.7, "infomap_w": 0.65}
            elif mu_t < 0.7:      # weighted regime
                feats = (0.45 + rng.uniform(-0.03, 0.03),
                         0.25 + rng.uniform(-0.03, 0.03))
                scores = {"copra_uw": 0.5, "infomap_uw": 0.45,
                          "copra_w": 0.92, "infomap_w": 0.88}
            else:                 # nothing works
                feats = (0.15 + rng.uniform(-0.03, 0.03),
                         0.55 + rng.uniform(-0.03, 0.03))
                scores = {"copra_uw": 0.2, "infomap_uw": 0.15,
                          "copra_w": 0.3, "infomap_w": 0.25}
            for alg, s in scores.items():
                rows.append({"mu_t": mu_t, "mu_w": mu_w, "rep": rep,
                             "algorithm": alg, "status": "ok", "nmi": s,
                             "c_uw": feats[0], "c_w": feats[1],
                             "achieved_mu_t": mu_t, "achieved_mu_w": mu_w})
    return rows


class TestTrainEval:
    def test_separable_input_perfect_confusion(self):
        rows = synth_rows(n_per_cell=10)
        result = train_eval(rows, train_fraction=0.7, split_seed=1,
                            threshold=0.6)
        assert result.accuracy == 1.0
        assert np.trace(result.confusion) == result.confusion.sum()
        assert "Confusion matrix (rows = true class" in result.report

    def test_confusion_row_sums_match_class_counts(self):
        rows = synth_rows(n_per_cell=8)
        result = train_eval(rows, train_fraction=0.5, split_seed=3)
        # every test network lands in exactly one confusion cell
        assert result.confusion.sum() == result.n_test

    def test_missing_class_in_split_rejected(self):
        rows = synth_rows(n_per_cell=4, cells=((0.1, 0.1), (0.5, 0.5)))
        with pytest.raises(ValueError, match="none"):
            train_eval(rows, train_fraction=0.8, split_seed=0)

    def test_deterministic_report(self):
        rows = synth_rows()
        a = train_eval(rows, split_seed=9)
        b = train_eval(rows, split_seed=9)
        assert a.report == b.report
        assert a.model == b.model

    def test_threshold_routes_to_none(self):
        rows = synth_rows(n_per_cell=6)
        records = collect_networks(rows)
        # max nmi 0.55 < 0.6 threshold in the third regime
        from commselect import label_network
        labs = [label_network(r.scores, 0.6) for r in records]
        assert labs.count(ClassLabel.NONE) == 6


class TestReportSelection:
    def test_always_weighted_model_matches_best_weighted(self):
        rows = synth_rows()
        model = manual_model([10.0, 10.0, 10.0])  # every vote says weighted
        out = report_selection(rows, model)
        for cell in out:
            assert cell["mean_selected"] == pytest.approx(
                cell["mean_best_weighted"])
            assert cell["none_fallbacks"] == 0

    def test_always_none_model_falls_back_to_unweighted(self):
        rows = synth_rows()
        model = manual_model([0.0, -10.0, -10.0])  # both none-classifiers fire
        out = report_selection(rows, model)
        for cell in out:
            assert cell["none_fallbacks"] == cell["n"]
            assert cell["mean_selected"] == pytest.approx(
                cell["mean_best_unweighted"])

    def test_per_algorithm_means_present(self):
        out = report_selection(synth_rows(), manual_model([1, 1, 1]))
        for a in ALGORITHM_ORDER:
            assert f"mean_{a}" in out[0]


class TestCli:
    def test_generate_roundtrip(self, tmp_path, capsys):
        edges = tmp_path / "net.edges"
        truth = tmp_path / "net.truth"
        rc = main(["generate", "--n", "48", "--avg-k", "8", "--k-max", "16",
                   "--mu-t", "0.3", "--mu-w", "0.3", "--seed", "5",
                   "--out-edges", str(edges), "--out-truth", str(truth)])
        assert rc == 0
        from commselect import load_edge_list, load_partition, measured_mixing
        g = load_edge_list(edges)
        p = load_partition(truth)
        mu_t, mu_w = measured_mixing(g, p)
        text = edges.read_text()
        assert f"achieved_mu_t {mu_t:.9g}" in text
        assert f"achieved_mu_w {mu_w:.9g}" in text

    def test_generate_deterministic_bytes(self, tmp_path):
        out = []
        for tag in ("a", "b"):
            e = tmp_path / f"{tag}.edges"
            t = tmp_path / f"{tag}.truth"
            assert main(["generate", "--n", "48", "--avg-k", "8",
                         "--k-max", "16", "--mu-t", "0.3", "--mu-w", "0.3",
                         "--seed", "5", "--out-edges", str(e),
                         "--out-truth", str(t)]) == 0
            out.append(e.read_bytes() + t.read_bytes())
        assert out[0] == out[1]

    def test_generate_validation_error(self, tmp_path, capsys):
        rc = main(["generate", "--n", "48", "--mu-t", "1.2", "--mu-w", "0.1",
                   "--out-edges", str(tmp_path / "x"),
                   "--out-truth", str(tmp_path / "y")])
        assert rc == 1
        assert "mu_t" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        e1, t1 = tmp_path / "a.edges", tmp_path / "a.truth"
        e2, t2 = tmp_path / "b.edges", tmp_path / "b.truth"
        args = ["generate", "--n", "48", "--avg-k", "8", "--k-max", "16",
                "--mu-t", "0.3", "--mu-w", "0.3", "--seed", "5"]
        main(args + ["--out-edges", str(e1), "--out-truth", str(t1)])
        monkeypatch.setenv("COMMSELECT_SEED", "99")
        main(args + ["--out-edges", str(e2), "--out-truth", str(t2)])
        assert e1.read_bytes() != e2.read_bytes()

    def test_full_pipeline(self, tmp_path, capsys):
        # at n=100, mu_t 0.2 is unweighted-won, (0.7, 0.2) weighted-won and
        # (0.7, 0.7) lost by all four, so the training split holds all
        # three classes
        detail = tmp_path / "detail.csv"
        rc = main(["sweep", "--n", "100", "--mu-t-grid", "0.2,0.7",
                   "--mu-w-grid", "0.2,0.7", "--reps", "3",
                   "--master-seed", "3", "--out", str(detail)])
        assert rc == 0
        assert detail.exists()
        assert (tmp_path / "detail_agg.csv").exists()

        model_path = tmp_path / "model.txt"
        report_path = tmp_path / "report.txt"
        rc = main(["train", "--results", str(detail),
                   "--model-out", str(model_path),
                   "--report-out", str(report_path),
                   "--train-fraction", "0.75", "--threshold", "0.6",
                   "--split-seed", "2"])
        assert rc == 0, capsys.readouterr().err
        assert model_path.exists()
        assert "networks: 12 (train 9, test 3)" in report_path.read_text()
        capsys.readouterr()

        edges = tmp_path / "one.edges"
        truth = tmp_path / "one.truth"
        assert main(["generate", "--n", "100", "--mu-t", "0.7",
                     "--mu-w", "0.2", "--seed", "11",
                     "--out-edges", str(edges),
                     "--out-truth", str(truth)]) == 0
        capsys.readouterr()
        part_out = tmp_path / "detected.txt"
        rc = main(["predict", "--model", str(model_path),
                   "--edges", str(edges), "--detect-out", str(part_out)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split(": ")[1] in {c.value for c in ClassLabel}
        assert out[1].startswith("c_uw: ") and out[2].startswith("c_w: ")
        assert all(line.startswith("margin ") for line in out[3:6])
        assert out[6].startswith("detected with ")
        assert len(part_out.read_text().splitlines()) == 100

        sel = tmp_path / "selection.csv"
        rc = main(["report", "--results", str(detail),
                   "--model", str(model_path), "--out", str(sel)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("wrote 4 cell rows")
        header, *lines = sel.read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert sorted((r["mu_t"], r["mu_w"]) for r in rows) == [
            ("0.2", "0.2"), ("0.2", "0.7"), ("0.7", "0.2"), ("0.7", "0.7")]
        for r in rows:
            assert r["n"] == "3"
            best = (float(r["mean_best_weighted"]),
                    float(r["mean_best_unweighted"]))
            assert min(best) - 1e-9 <= float(r["mean_selected"]) <= max(best) + 1e-9

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=48\navg_k=8\nk_max=16\nmu_t=0.3\nmu_w=0.3\nseed=5\n")
        e1, t1 = tmp_path / "c.edges", tmp_path / "c.truth"
        rc = main(["generate", "--config", str(cfg),
                   "--out-edges", str(e1), "--out-truth", str(t1)])
        assert rc == 0
        # flags override the file
        e2, t2 = tmp_path / "d.edges", tmp_path / "d.truth"
        rc = main(["generate", "--config", str(cfg), "--seed", "6",
                   "--out-edges", str(e2), "--out-truth", str(t2)])
        assert rc == 0
        assert e1.read_bytes() != e2.read_bytes()

    def test_predict_rejects_malformed_inputs(self, tmp_path, capsys):
        bad_model = tmp_path / "m.txt"
        bad_model.write_text("junk\n")
        edges = tmp_path / "e.txt"
        edges.write_text("0 1 1.0\n")
        assert main(["predict", "--model", str(bad_model),
                     "--edges", str(edges)]) == 1

    def test_predict_propagates_self_loop_parse_error(self, tmp_path, capsys):
        rows = synth_rows()
        result = train_eval(rows, split_seed=1)
        from commselect import save_model
        model_path = tmp_path / "m.txt"
        save_model(result.model, model_path)
        edges = tmp_path / "loop.txt"
        edges.write_text("0 1 1.0\n2 2 1.0\n")
        assert main(["predict", "--model", str(model_path),
                     "--edges", str(edges)]) == 1
        assert "self-loop" in capsys.readouterr().err

    def test_predict_rejects_zero_node_graph(self, tmp_path, capsys):
        from commselect import save_model
        model_path = tmp_path / "m.txt"
        save_model(manual_model([1.0, 1.0, 1.0]), model_path)
        edges = tmp_path / "empty.txt"
        edges.write_text("# nodes 0\n")
        assert main(["predict", "--model", str(model_path),
                     "--edges", str(edges)]) == 1
        assert "cannot load inputs: " in capsys.readouterr().err

    def test_sweep_aggregate_beside_output_in_dotted_directory(self, tmp_path):
        out_dir = tmp_path / "runs.v2"
        out_dir.mkdir()
        rc = main(["sweep", "--n", "48", "--avg-k", "8", "--k-max", "16",
                   "--mu-t-grid", "0.3", "--mu-w-grid", "0.2", "--reps", "1",
                   "--algorithms", "copra_uw", "--out", str(out_dir / "results")])
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["results",
                                                             "results_agg"]

    def test_predict_none_vote_runs_the_class_report_scores(self, tmp_path,
                                                            capsys):
        # both none-classifiers fire, so every vote is None
        model = manual_model([0.0, -10.0, -10.0])
        from commselect import save_model
        from commselect.selector import algorithm_class
        model_path = tmp_path / "m.txt"
        save_model(model, model_path)
        edges = tmp_path / "e.txt"
        edges.write_text("0 1 3.0\n1 2 0.5\n2 0 1.0\n2 3 2.0\n3 4 1.0\n")
        part_out = tmp_path / "p.txt"
        assert main(["predict", "--model", str(model_path),
                     "--edges", str(edges), "--detect-out",
                     str(part_out)]) == 0
        out = capsys.readouterr().out
        assert "predicted_class: none" in out
        ran = out.split("detected with ")[1].split()[0]
        scored = report_selection(synth_rows(), model)
        assert algorithm_class(ran) == ClassLabel.UNWEIGHTED
        for cell in scored:
            assert cell["mean_selected"] == cell["mean_best_unweighted"]

    def test_predict_unit_weight_features_coincide(self, tmp_path, capsys):
        rows = synth_rows()
        result = train_eval(rows, split_seed=1)
        from commselect import save_model
        model_path = tmp_path / "m.txt"
        save_model(result.model, model_path)
        edges = tmp_path / "e.txt"
        edges.write_text("0 1\n1 2\n2 0\n2 3\n")
        assert main(["predict", "--model", str(model_path),
                     "--edges", str(edges)]) == 0
        out = capsys.readouterr().out
        lines = dict(ln.split(": ") for ln in out.strip().splitlines()
                     if ": " in ln)
        assert lines["c_uw"] == lines["c_w"]
