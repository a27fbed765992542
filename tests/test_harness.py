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
        cfg_serial = tiny_sweep(reps=2, algorithms=ALGORITHM_ORDER)
        cfg_parallel = tiny_sweep(reps=2, algorithms=ALGORITHM_ORDER,
                                  workers=2)
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

    def test_generate_requires_mixing(self, tmp_path):
        with pytest.raises(SystemExit, match="--mu-t and --mu-w are required"):
            main(["generate", "--mu-t", "0.3", "--out-edges",
                  str(tmp_path / "e"), "--out-truth", str(tmp_path / "t")])

    def test_predict_takes_detect_seed_from_config(self, tmp_path, capsys,
                                                   monkeypatch):
        from commselect import harness, save_model
        model_path = tmp_path / "m.txt"
        save_model(manual_model([1.0, 1.0, 1.0]), model_path)
        edges = tmp_path / "e.txt"
        edges.write_text("0 1 1.0\n1 2 1.0\n2 0 1.0\n2 3 1.0\n")
        seeds = []
        run = harness.run_algorithm
        monkeypatch.setattr(harness, "run_algorithm",
                            lambda name, g, seed: seeds.append(seed)
                            or run(name, g, seed))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model={model_path}\nedges={edges}\n"
                       f"detect_out={tmp_path / 'p.txt'}\ndetect_seed=7\n")
        assert main(["predict", "--config", str(cfg)]) == 0
        assert seeds and set(seeds) == {7}
        assert (tmp_path / "p.txt").exists()

    def test_sweep_config_supplies_required_out(self, tmp_path):
        out = tmp_path / "results.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={out}\nn=48\navg_k=8\nk_max=16\nmu_t_grid=0.3\n"
                       "mu_w_grid=0.2\nreps=1\nalgorithms=copra_uw\n"
                       "# keys of other commands, and unknown ones, are ignored\n"
                       "seed=3\nmodel=m.txt\nseeed=5\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert len(read_detail_csv(out)) == 1
        assert (tmp_path / "results_agg.csv").exists()

    def test_config_key_must_name_the_option_exactly(self, tmp_path, capsys):
        # argparse would read a bare --mu-t as a prefix of --mu-t-grid
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu_t=0.3\nmu_w_grid=0.2\n")
        rc = main(["sweep", "--config", str(cfg), "--out",
                   str(tmp_path / "r.csv")])
        assert rc == 1
        assert ("--mu-t-grid and --mu-w-grid are required"
                in capsys.readouterr().err)

    def test_flag_beats_config_and_env_seed_beats_both(self, tmp_path,
                                                       monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=48\navg_k=8\nk_max=16\nmu_t=0.3\nmu_w=0.3\nseed=5\n"
                       f"out_edges={tmp_path / 'e'}\nout_truth={tmp_path / 't'}\n")

        def seed_used(*flags):
            assert main(["generate", "--config", str(cfg), *flags]) == 0
            header = (tmp_path / "e").read_text().splitlines()
            return next(ln for ln in header if ln.startswith("# seed "))

        assert seed_used() == "# seed 5"
        assert seed_used("--seed", "6") == "# seed 6"
        monkeypatch.setenv("COMMSELECT_SEED", "99")
        assert seed_used("--seed", "6") == "# seed 99"

    def test_train_and_report_read_config(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        write_detail_csv(synth_rows(), results)
        model_path = tmp_path / "model.txt"
        sel = tmp_path / "selection.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"results={results}\nmodel_out={model_path}\n"
                       f"model={model_path}\nout={sel}\nthreshold=0.5\n"
                       "split_seed=1\n")
        assert main(["train", "--config", str(cfg)]) == 0
        assert "nmi threshold for 'none': 0.5\n" in capsys.readouterr().out
        assert main(["train", "--config", str(cfg), "--threshold", "0.55"]) == 0
        assert "nmi threshold for 'none': 0.55\n" in capsys.readouterr().out
        assert main(["report", "--config", str(cfg)]) == 0
        assert sel.read_text().startswith("mu_t,mu_w,n,")

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_bad_results_file_is_one_line_error(self, tmp_path, capsys,
                                                command):
        from commselect import save_model
        model_path = tmp_path / "m.txt"
        save_model(manual_model([1.0, 1.0, 1.0]), model_path)
        no_rep = tmp_path / "no_rep.csv"
        no_rep.write_text(rows_to_csv(synth_rows(), [
            c for c in DETAIL_COLUMNS if c != "rep"]))
        for path, text in ((tmp_path / "missing.csv", "No such file"),
                           (no_rep, "missing column(s) rep")):
            args = [command, "--results", str(path)]
            args += (["--model-out", str(tmp_path / "out.txt")]
                     if command == "train" else
                     ["--model", str(model_path), "--out",
                      str(tmp_path / "out.csv")])
            assert main(args) == 1
            err = capsys.readouterr().err
            assert text in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_short_or_long_row_is_one_line_error(self, tmp_path, capsys,
                                                 command):
        from commselect import save_model
        model_path = tmp_path / "m.txt"
        save_model(manual_model([1.0, 1.0, 1.0]), model_path)
        header = rows_to_csv(synth_rows(), DETAIL_COLUMNS).splitlines()[0]
        width = len(DETAIL_COLUMNS)
        for row, fields in (("0.2,0.2,0,copra_uw,ok", 5),
                            (",".join(["0"] * (width + 1)), width + 1)):
            path = tmp_path / "bad.csv"
            path.write_text(f"{header}\n{row}\n")
            args = [command, "--results", str(path)]
            args += (["--model-out", str(tmp_path / "out.txt")]
                     if command == "train" else
                     ["--model", str(model_path), "--out",
                      str(tmp_path / "out.csv")])
            assert main(args) == 1
            err = capsys.readouterr().err
            assert f"{path}, line 2: {fields} fields, the header has " \
                f"{width}" in err, err
            assert len(err.strip().splitlines()) == 1

    def test_help_shows_every_library_default(self, capsys):
        import dataclasses
        import inspect
        from commselect import SvmHyper
        from commselect.harness import train_eval

        def shown(value):
            return ",".join(value) if isinstance(value, tuple) else f"{value:g}"

        defaults = {f.name: f.default for f in dataclasses.fields(GenParams)}
        defaults.update({f.name: f.default
                         for f in dataclasses.fields(SweepConfig)})
        defaults.update({"svm_" + f.name: f.default
                         for f in dataclasses.fields(SvmHyper)})
        defaults.update({k: p.default for k, p in
                         inspect.signature(train_eval).parameters.items()})
        defaults = {k: v for k, v in defaults.items()
                    if v not in (None, dataclasses.MISSING, inspect.Parameter.empty)}
        checked = set()
        for command in ("generate", "sweep", "train", "predict", "report"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out.split("options:")[1]
            for entry in text.split("\n  -")[1:]:
                dest = entry.split()[0].lstrip("-").replace("-", "_")
                if dest in defaults:
                    assert (f"(default {shown(defaults[dest])})"
                            in " ".join(entry.split())), (command, dest)
                    checked.add(dest)
        # every defaulted option of the four owners has a flag, bar the
        # SvmHyper passed to train_eval whole
        assert checked == set(defaults) - {"hyper"}
