import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import torusgibbs as tg
from torusgibbs import archive as arch
from torusgibbs import hamiltonians as ham
from torusgibbs.cli import main
from torusgibbs import experiments
from torusgibbs.experiments import SchemaError, build_reference, run_experiment, validate_config
from torusgibbs.sampling import GaussianReference, SampleEnsemble
from torusgibbs.spectral import GridResolutionError, Lattice


# -- schema --------------------------------------------------------------------

def test_schema_rejects_unknown_top_key():
    with pytest.raises(SchemaError):
        validate_config({"experiment": "sample", "seed": 0, "bogus": 1})


def test_schema_rejects_unknown_block_key():
    with pytest.raises(SchemaError):
        validate_config({"experiment": "sample", "seed": 0,
                         "lattice": {"dim": 1, "n": 4, "oops": 2}})


def test_schema_rejects_bad_experiment_and_lattice():
    with pytest.raises(SchemaError):
        validate_config({"experiment": "nonsense"})
    with pytest.raises(SchemaError):
        validate_config({"experiment": "sample", "lattice": {"dim": 3, "n": 4}})


def test_cli_exit_code_2_on_schema_violation(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "sample", "wrong": True}))
    assert main(["run", str(cfg)]) == 2


def test_cli_exit_code_2_on_unreadable_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["run", str(cfg)]) == 2


# -- run + reports ---------------------------------------------------------------

SAMPLE_CFG = {
    "experiment": "sample",
    "seed": 3,
    "lattice": {"dim": 1, "n": 6},
    "model": {"kind": "nls", "p": 4, "lam": 0.01},
    "domain": {"kind": "mass_ball", "mass": 5.0},
    "sampler": {"steps": 400, "burn_in": 100, "thin": 2},
}


def test_sample_run_writes_report_and_archive(tmp_path):
    out = str(tmp_path / "run1")
    report, code = run_experiment(dict(SAMPLE_CFG), output_dir=out)
    assert code == 0
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "report.csv"))
    ens = arch.read_ensemble(os.path.join(out, "ensemble.tgbs"))
    assert len(ens) == report["results"]["count"]


def test_rerun_same_seed_byte_identical_modulo_timestamp(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run_experiment(dict(SAMPLE_CFG), output_dir=out)
        with open(os.path.join(out, "report.json")) as fh:
            body = json.load(fh)
        body.pop("created")
        body["config"].pop("output_dir", None)
        outs.append(json.dumps(body, sort_keys=True))
    assert outs[0] == outs[1]


def test_flow_experiment_pass_flag(tmp_path):
    cfg = {
        "experiment": "flow",
        "seed": 1,
        "lattice": {"dim": 1, "n": 32, "oversample": 2},
        "model": {"kind": "nls", "p": 4, "lam": 1.0},
        "flow": {"dt": 1e-3, "t_final": 0.2},
        "params": {"amplitude": 0.5, "mass_tol": 1e-10, "energy_tol": 1e-6},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "flow"))
    assert code == 0 and report["passed"] is True


def _run_fresh(cfg: dict, tmp_path) -> list:
    """Run a config in a fresh interpreter that also imports the package and
    the CLI; returns its exit code and the scipy modules it loaded."""
    script = (
        "import json, sys\n"
        "import torusgibbs\n"
        "import torusgibbs.cli\n"
        "from torusgibbs.experiments import run_experiment\n"
        f"report, code = run_experiment(json.loads({json.dumps(cfg)!r}), {str(tmp_path)!r})\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tg.__file__)))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_no_scipy_on_the_import_path(tmp_path):
    # a fresh run of a flow loads no scipy module; no module of the package
    # imports it (test_reachability.py checks every import)
    cfg = {"experiment": "flow", "seed": 1, "lattice": {"dim": 1, "n": 8, "oversample": 2},
           "model": {"kind": "kdv", "lam": 1.0}, "flow": {"dt": 1e-3, "t_final": 0.01}}
    assert _run_fresh(cfg, tmp_path) == ["0", "[]"]


def test_exact_oracle_on_uniform_clouds_loads_no_scipy(tmp_path):
    # the sinkhorn_vs_exact task's uniform clouds go to the numpy assignment solver
    cfg = {"experiment": "transport", "seed": 3, "params": {"task": "sinkhorn_vs_exact"}}
    assert _run_fresh(cfg, tmp_path) == ["0", "[]"]


def test_flow_numerical_failure_exit_3(tmp_path):
    cfg = {
        "experiment": "flow",
        "seed": 6,
        "lattice": {"dim": 1, "n": 64, "oversample": 2},
        "model": {"kind": "kdv", "lam": 8.0},
        "flow": {"dt": 2e-2, "t_final": 2.0},
        "params": {"amplitude": 60.0},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "boom"))
    assert code == 3


def test_runtime_error_in_runner_exits_3(tmp_path, monkeypatch):
    def boom(seed):
        raise RuntimeError("rejection sampler got 0/10 points")

    monkeypatch.setitem(experiments._RUNNERS, "tail", boom)
    report, code = run_experiment({"experiment": "tail", "seed": 0},
                                  output_dir=str(tmp_path / "rt"))
    assert code == 3 and report["passed"] is False
    assert "rejection sampler" in report["error"]
    cfg = tmp_path / "tail.json"
    cfg.write_text(json.dumps({"experiment": "tail", "seed": 0}))
    assert main(["run", str(cfg)]) == 3


def test_lsi_experiment_free_loop(tmp_path):
    cfg = {
        "experiment": "lsi",
        "seed": 2,
        "lattice": {"dim": 1, "n": 8},
        "model": {"kind": "nls", "p": 4, "lam": 0.0},
        "domain": {"kind": "mass_ball", "mass": 1e9},
        "sampler": {"steps": 6000, "burn_in": 500, "thin": 2, "beta": 0.9},
        "params": {"max_mode": 2},
    }
    # alpha predicted from lam = 0: N lam = 0 -> alpha = 1
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "lsi"))
    assert code == 0
    assert report["results"]["alpha_hat"] > 0.5


@pytest.mark.parametrize("mode", ["lsi", "poincare"])
def test_a_chain_that_never_moves_reports_a_degenerate_dictionary(tmp_path, mode):
    # every proposal leaves the tiny ball, so each functional's samples are
    # all equal: no entropy and no variance to divide by, in either mode
    cfg = {"experiment": "lsi", "seed": 2, "lattice": {"dim": 1, "n": 8},
           "model": {"kind": "nls", "p": 4, "lam": 0.0},
           "domain": {"kind": "mass_ball", "mass": 1e-9},
           "sampler": {"steps": 400}, "params": {"mode": mode}}
    report, code = run_experiment(cfg, output_dir=str(tmp_path / mode))
    assert code == 0, report.get("error")
    assert "degenerate dictionary" in report["results"]["note"]
    assert report["results"]["rows"]
    assert all(row["ratio"] is None for row in report["results"]["rows"])


def test_transport_tail_sum_cli(tmp_path):
    cfg = {"experiment": "transport", "seed": 0,
           "params": {"task": "tail_sum", "n_list": [4, 8], "s": 0.25}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 0


def test_cli_report_summarizes(tmp_path):
    cfg = {"experiment": "transport", "seed": 0,
           "params": {"task": "tail_sum", "n_list": [4], "s": 0.25}}
    run_experiment(cfg, output_dir=str(tmp_path / "r1"))
    assert main(["report", str(tmp_path)]) == 0


def test_cli_inspect(tmp_path, capsys):
    out = str(tmp_path / "runx")
    run_experiment(dict(SAMPLE_CFG), output_dir=out)
    assert main(["inspect", os.path.join(out, "ensemble.tgbs")]) == 0
    header = json.loads(capsys.readouterr().out)
    assert header["count"] > 0 and header["dim"] == 1


# -- archives ---------------------------------------------------------------------

def test_archive_roundtrip_bit_exact(tmp_path):
    lat = Lattice(2, 4)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(7)
    ens = SampleEnsemble(lat, ref.sample_batch(rng, 37), False, False, seed=7)
    path = str(tmp_path / "e.tgbs")
    arch.write_ensemble(path, ens)
    back = arch.read_ensemble(path)
    assert np.array_equal(back.coefs, ens.coefs)
    assert back.lattice == ens.lattice
    assert back.seed == 7


def test_archive_empty_ensemble(tmp_path):
    lat = Lattice(1, 4)
    ens = SampleEnsemble(lat, np.zeros((0,) + lat.shape, dtype=complex), False, True)
    path = str(tmp_path / "empty.tgbs")
    arch.write_ensemble(path, ens)
    back = arch.read_ensemble(path)
    assert len(back) == 0


def test_archive_truncation_detected(tmp_path):
    lat = Lattice(1, 4)
    rng = np.random.default_rng(8)
    ens = SampleEnsemble(lat, rng.standard_normal((5,) + lat.shape)
                         + 0j, False, True)
    path = str(tmp_path / "t.tgbs")
    arch.write_ensemble(path, ens)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-16])
    with pytest.raises(arch.ArchiveError):
        arch.read_ensemble(path)


def test_archive_corruption_detected(tmp_path):
    lat = Lattice(1, 4)
    rng = np.random.default_rng(9)
    ens = SampleEnsemble(lat, rng.standard_normal((5,) + lat.shape) + 0j, False, True)
    path = str(tmp_path / "c.tgbs")
    arch.write_ensemble(path, ens)
    raw = bytearray(open(path, "rb").read())
    raw[-5] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(arch.ArchiveError):
        arch.read_ensemble(path)


def test_archive_rejects_wrong_magic(tmp_path):
    path = str(tmp_path / "x.tgbs")
    open(path, "wb").write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(arch.ArchiveError):
        arch.read_ensemble(path)


# -- remaining experiment kinds (scaled-down configs) -----------------------------

def test_invariance_experiment_negative_control(tmp_path):
    cfg = {
        "experiment": "invariance",
        "seed": 5,
        "lattice": {"dim": 1, "n": 8},
        "model": {"kind": "nls", "p": 4, "lam": 0.18},
        "sampler": {"steps": 100},
        "flow": {"dt": 5e-4, "t_final": 1.0},
        "params": {"gaussian_control": True, "count": 2000,
                   "expect_fail_functional": "quartic_integral",
                   "energy_tol": 0.5},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "inv"))
    assert code == 0 and report["passed"] is True


def test_convexity_experiment(tmp_path):
    cfg = {
        "experiment": "convexity",
        "seed": 5,
        "lattice": {"dim": 1, "n": 16, "oversample": 2},
        "model": {"kind": "kdv", "lam": 0.0759909},
        "params": {"mass_bound": 4.0, "trials": 100},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "cvx"))
    assert code == 0 and report["passed"] is True


def test_closed_form_constants_hold_in_one_dimension_only(tmp_path):
    # NLS p = 4's alpha = 1 - 14 pi^2 N lam / 3 rests on the Sobolev bound of
    # T^1: on a 2D lattice convexity is rejected before any work, as is an
    # NLS p = 6 model, which has no closed form, and lsi predicts nothing
    nls2 = {"lattice": {"dim": 2, "n": 4}, "model": {"kind": "nls", "lam": 0.005}}
    bad = [dict(nls2, experiment="convexity", params={"mass_bound": 4.0, "trials": 50}),
           {"experiment": "convexity", "model": {"kind": "nls", "p": 6, "lam": 0.005}}]
    for i, cfg in enumerate(bad):
        with pytest.raises(SchemaError, match="closed-form constant"):
            run_experiment(cfg, output_dir=str(tmp_path / f"cvx{i}"))
        assert not (tmp_path / f"cvx{i}").exists()
    lsi = dict(nls2, experiment="lsi", seed=2, domain={"kind": "mass_ball", "mass": 4.0},
               sampler={"steps": 2000, "burn_in": 200, "thin": 2}, params={"max_mode": 1})
    report, code = run_experiment(lsi, output_dir=str(tmp_path / "lsi"))
    assert code == 0 and report["passed"] is None
    assert report["results"]["prediction"]["alpha"] is None
    assert not report["results"]["prediction"]["in_regime"]
    lsi["lattice"] = {"dim": 1, "n": 4}           # the same model in D = 1 has its alpha
    report, _ = run_experiment(lsi)
    assert report["results"]["prediction"]["alpha"] == pytest.approx(1 - 14 * math.pi ** 2
                                                                     * 0.02 / 3)


def test_normalizability_experiment(tmp_path):
    cfg = {
        "experiment": "normalizability",
        "seed": 17,
        "params": {"p": 8, "lam": 1.0, "mass_bound": 30.0,
                   "n_list": [8, 16], "n_samples": 800, "expect": "divergent"},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "norm"))
    assert code == 0 and report["passed"] is True


def test_zakharov_experiment(tmp_path):
    cfg = {
        "experiment": "zakharov",
        "seed": 12,
        "lattice": {"dim": 1, "n": 8},
        "model": {"kind": "zakharov", "mass_bound": 0.01},
        "sampler": {"steps": 300, "burn_in": 50, "thin": 2},
        "flow": {"dt": 1e-3, "t_final": 0.05},
        "params": {"count": 40, "flow_states": 2},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "zak"))
    assert code == 0
    assert report["results"]["note"].startswith("Zakharov")


def test_zakharov_flow_experiment(tmp_path):
    # a flow run of the Zakharov model starts from Zakharov.start_state
    cfg = {
        "experiment": "flow",
        "seed": 1,
        "lattice": {"dim": 1, "n": 16},
        "model": {"kind": "zakharov"},
        "flow": {"dt": 1e-3, "t_final": 0.1},
        "params": {"mass_tol": 1e-12, "energy_tol": 1e-4, "richardson": True,
                   "richardson_dts": [4e-3, 2e-3, 1e-3]},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "zflow"))
    assert code == 0 and report["passed"] is True
    results = report["results"]
    assert results["steps"] == 100 and results["energy_drift"] > 1e-6
    assert abs(results["richardson"]["order"] - 2.0) < 0.1


def test_gp_solve_experiment(tmp_path):
    cfg = {
        "experiment": "gp-solve",
        "seed": 4,
        "lattice": {"dim": 2, "n": 6, "oversample": 2},
        "model": {"kind": "gp", "potential": {"kind": "cosine"}, "lam": 0.5},
        "params": {"t_final": 0.1, "steps": 24, "dt": 2e-3, "amplitude": 0.5},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "gps"))
    assert code == 0 and report["passed"] is True


def test_tail_experiment_decay_mass(tmp_path):
    cfg = {
        "experiment": "tail",
        "seed": 77,
        "lattice": {"dim": 2, "n": 10},
        "params": {"task": "decay_mass", "s": 0.2, "eps": 0.1,
                   "grid": [[7.5, 3.0], [8.5, 4.0]], "n_samples": 5000},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "tl"))
    assert code == 0 and report["passed"] is True


def test_shipped_configs_validate():
    import glob
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(here, "configs", "*.json")))
    assert len(paths) >= 10
    for path in paths:
        with open(path) as fh:
            validate_config(json.load(fh))


def test_lsi_unrestricted_free_field(tmp_path):
    cfg = {
        "experiment": "lsi",
        "seed": 9,
        "lattice": {"dim": 1, "n": 6},
        "model": {"kind": "nls", "p": 4, "lam": 0.0},
        "sampler": {"steps": 4000, "thin": 2},
        "params": {"max_mode": 2},
    }
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "free"))
    assert code == 0 and report["passed"] is True
    assert report["results"]["prediction"]["alpha"] == 1.0


def test_exact_draws_keep_as_many_states_as_the_chain():
    # the free field on an unrestricted domain is drawn exactly; its size is
    # the chain's kept count, ceil(steps / thin), as on a domain that needs a chain
    lat = Lattice(1, 4)
    model = tg.NLS(4, 0.0)
    ref = build_reference(model, lat)
    chain = tg.ChainConfig(steps=401, burn_in=10, thin=2, seed=3, beta=0.5)
    exact = experiments._gibbs_ensemble(model, tg.PhaseDomain.unrestricted(), ref, chain)
    chained = experiments._gibbs_ensemble(model, tg.PhaseDomain.mass_ball(1e6), ref, chain)
    assert len(exact) == len(chained) == 201
    # a chain keeps every thin-th state, so thin 0 is a schema error (exit 2)
    with pytest.raises(SchemaError, match="thin must be >= 1"):
        validate_config({"experiment": "lsi", "sampler": {"steps": 40, "thin": 0}})


def test_build_reference_follows_the_model():
    lat1, lat2 = {"dim": 1, "n": 8}, {"dim": 2, "n": 4}
    gp = {"kind": "gp", "lam": 0.5, "kappa": 2.0, "potential": {"kind": "soft_sphere"}}
    cases = [({"kind": "nls", "p": 4, "lam": 0.3}, lat1, 0.0, "complex"),
             ({"kind": "kdv", "lam": 0.3}, lat1, 0.0, "real"),
             (gp, lat2, None, "complex"),
             ({"kind": "gp_projected", "lam": 1.0, "n_project": 2}, lat2, 0.0, "complex")]
    for mcfg, lat, rho, field_type in cases:
        _, args = validate_config({"experiment": "sample", "lattice": lat, "model": mcfg})
        model, lattice = args["model"], args["lattice"]
        ref = build_reference(model, lattice)
        if rho is None:                          # GP: the Wick counterterm mass
            rho = ham.counterterm_mass(model, lattice.n)
            assert rho > 0
        assert (ref.rho, ref.field_type, ref.spectrum) == (rho, field_type, "massive")


def test_invalid_runner_params_exit_2(tmp_path):
    cfg = tmp_path / "bad_params.json"
    cfg.write_text(json.dumps({
        "experiment": "normalizability", "seed": 0,
        "params": {"p": 7, "lam": 1.0, "mass_bound": 1.0,
                   "n_list": [4, 8], "n_samples": 100},
    }))
    assert main(["run", str(cfg)]) == 2


# -- declared parameters: every kind rejects what it does not read ----------------

# one minimal valid config per declared kind and task, a block it never reads,
# and one of its params (None: it has none)
KINDS = [
    ({"experiment": "sample"}, "flow", None),
    ({"experiment": "flow"}, "sampler", "amplitude"),
    ({"experiment": "invariance"}, "reference", "count"),
    ({"experiment": "lsi"}, "flow", "max_mode"),
    ({"experiment": "convexity"}, "flow", "trials"),
    ({"experiment": "normalizability"}, "lattice", "p"),
    ({"experiment": "normalizability", "params": {"bisect": True}}, "model", "mass_lo"),
    ({"experiment": "transport"}, "lattice", "points"),
    ({"experiment": "transport", "params": {"task": "tail_sum"}}, "lattice", "n_list"),
    ({"experiment": "transport", "params": {"task": "coupling"}}, "model", "n_samples"),
    ({"experiment": "gp-solve", "lattice": {"dim": 2, "n": 4}}, "domain", "amplitude"),
    ({"experiment": "zakharov"}, "domain", "count"),
    ({"experiment": "tail"}, "flow", "s"),
    ({"experiment": "tail", "params": {"task": "decay_mass"}}, "model", "grid"),
]
# a model block with a key its kind does not take
FOREIGN_MODEL = {"zakharov": {"kind": "zakharov", "lam": 1.0},
                 "gp-solve": {"kind": "gp", "kappa": 0.0, "rho": 1.0}}


def _kind_id(case):
    base = case[0]
    return "-".join(str(v) for v in [base["experiment"], *base.get("params", {}).values()])


def test_kind_configs_cover_every_declared_kind_and_task():
    declared = set()
    for runner in experiments._RUNNERS.values():
        declared |= set(runner[1].values()) if isinstance(runner, tuple) else {runner}
    assert {validate_config(base)[0] for base, _, _ in KINDS} == declared


@pytest.mark.parametrize("base,unread,param", KINDS, ids=[_kind_id(c) for c in KINDS])
def test_unread_keys_and_wrong_types_exit_2(tmp_path, base, unread, param):
    params = base.get("params", {})
    cases = [dict(base, params=dict(params, enregy_tol=1e-30)),
             dict(base, **{unread: {}}),
             dict(base, seed=True),
             dict(base, seed=-1)]
    if param is not None:
        cases.append(dict(base, params=dict(params, **{param: "big"})))
    if "model" in validate_config(base)[1]:
        cases.append(dict(base, model=FOREIGN_MODEL.get(base["experiment"],
                                                        {"kind": "kdv", "p": 6})))
    for i, cfg in enumerate(cases):
        path, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "-o", str(out)]) == 2, cfg
        assert not out.exists()                  # rejected before any work


def test_removed_and_unknown_names_exit_2(tmp_path, capsys):
    # an unknown negative-control functional is rejected before the chain runs;
    # the Lie scheme is gone, so flow.scheme is an unknown key
    bad = [{"experiment": "invariance", "params": {"expect_fail_functional": "quartic"}},
           {"experiment": "flow", "flow": {"scheme": "lie"}}]
    for i, cfg in enumerate(bad):
        path, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "-o", str(out)]) == 2
        assert not out.exists()
    err = capsys.readouterr().err
    assert "quartic_integral" in err and "tanh_linear" in err and "scheme" in err


def test_probe_exponent_is_rejected_by_validation():
    with pytest.raises(SchemaError, match="params.p"):
        validate_config({"experiment": "normalizability", "params": {"p": 7}})


def test_zakharov_off_a_1d_lattice_exits_2(tmp_path, capsys):
    # Zakharov's u is complex, but its n and v are real fields, which are 1D
    zak2 = {"lattice": {"dim": 2, "n": 4}, "model": {"kind": "zakharov"}}
    for i, cfg in enumerate([dict(zak2, experiment="zakharov"), dict(zak2, experiment="flow")]):
        path, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "-o", str(out)]) == 2
        assert not out.exists()
        assert "Zakharov fields are real and need a 1D lattice" in capsys.readouterr().err


@pytest.mark.parametrize("output_dir", [5, True])
def test_a_non_string_output_dir_exits_2(tmp_path, output_dir):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "transport", "output_dir": output_dir,
                                "params": {"task": "tail_sum"}}))
    assert main(["run", str(path)]) == 2
    with pytest.raises(SchemaError, match="^output_dir must be a string$"):
        validate_config(json.loads(path.read_text()))


def test_kdv_on_a_2d_lattice_is_rejected_by_validation(tmp_path):
    # real fields are 1D throughout (the reference, the Hermitian check), so
    # validation rejects KdV on a 2D lattice before any work
    kdv2 = {"lattice": {"dim": 2, "n": 4}, "model": {"kind": "kdv", "lam": 0.1}}
    bad = [dict(kdv2, experiment="sample", sampler={"steps": 10, "burn_in": 0}),
           dict(kdv2, experiment="flow", flow={"dt": 1e-3, "t_final": 1e-2})]
    for i, cfg in enumerate(bad):
        with pytest.raises(SchemaError, match="KdV fields are real and need a 1D lattice"):
            run_experiment(cfg, output_dir=str(tmp_path / f"kdv{i}"))
        assert not (tmp_path / f"kdv{i}").exists()
        cfg["lattice"] = {"dim": 1, "n": 4}
        assert run_experiment(cfg)[1] == 0


# a config whose values its computation (or a block's constructor) rejects,
# where the rejection is reported, and the message it is rejected with
NORM = "normalizability"
LEVELS = "needs at least two distinct truncation levels n >= 1"
RANGE_ERRORS = [
    ({"experiment": "tail", "params": {"task": "sobolev_tail", "s": 0.1}}, "tail",
     "needs 1/4 < s < 1/2"),
    ({"experiment": "tail", "params": {"task": "sobolev_tail", "s": 0.5}}, "tail",
     "needs 1/4 < s < 1/2"),
    ({"experiment": "transport", "params": {"task": "tail_sum", "n_list": [1]}}, "transport",
     "need n >= 2 and s > 0"),
    ({"experiment": "transport", "params": {"task": "tail_sum", "n_list": [4, 8], "s": 0.0}},
     "transport", "need n >= 2 and s > 0"),
    ({"experiment": "tail", "params": {"task": "decay_mass", "s": 0.3}}, "tail",
     "0 < s < 1/4"),
    ({"experiment": "tail", "params": {"task": "decay_mass", "eps": 0.2}}, "tail",
     "0 < eps < 1/8"),
    ({"experiment": "tail",
      "params": {"task": "decay_mass", "grid": [[7.5, 3.0], [8.0, 1.0]]}}, "tail", "K2 exp"),
    ({"experiment": NORM, "params": {"n_list": [8]}}, NORM, LEVELS),
    ({"experiment": NORM, "params": {"n_list": []}}, NORM, LEVELS),
    ({"experiment": NORM, "params": {"n_list": [0, 16]}}, NORM, LEVELS),
    ({"experiment": NORM, "params": {"bisect": True, "n_list": [8]}}, NORM, LEVELS),
    ({"experiment": NORM, "params": {"bisect": True, "n_list": []}}, NORM, LEVELS),
    ({"experiment": NORM, "params": {"bisect": True, "n_list": [0, 16]}}, NORM, LEVELS),
    ({"experiment": NORM, "params": {"n_list": [8, 8]}}, NORM, LEVELS),
    ({"experiment": NORM, "params": {"bisect": True, "n_list": [8, 16, 16]}}, NORM, LEVELS),
    # values a chain cannot run; beta > 1 is no reference-preserving proposal
    ({"experiment": "sample", "sampler": {"beta": 2.0}}, "config.sampler",
     "beta must be in (0, 1]"),
    ({"experiment": "sample", "sampler": {"beta": 0.0}}, "config.sampler",
     "beta must be in (0, 1]"),
    ({"experiment": "sample", "sampler": {"burn_in": -2}}, "config.sampler",
     "burn_in must be >= 0"),
    ({"experiment": "sample", "sampler": {"steps": 0}}, "config.sampler",
     "steps must be >= 1"),
    # a negative stride is no stride (0 records the endpoints only)
    ({"experiment": "flow", "flow": {"record_stride": -3}}, "config.flow",
     "record_stride must be >= 0"),
    # a Z estimate's stderr needs two draws, a decay-domain mass one
    *(({"experiment": NORM, "params": {"bisect": bisect, "n_samples": n}}, NORM,
       "needs n_samples >= 2 draws") for bisect in (False, True) for n in (0, 1)),
    *(({"experiment": "tail", "params": {"task": "decay_mass", "n_samples": n}}, "tail",
       "needs n_samples >= 1 draw") for n in (0, -5)),
    # a least margin needs a trial, invariance stderrs two states, a
    # Richardson slope three distinct steps of the push, the Duhamel nodes a step
    *(({"experiment": "convexity", "params": {"trials": n}}, "convexity",
       "needs trials >= 1") for n in (0, -2)),
    *(({"experiment": "invariance", **cfg}, "invariance",
       "needs an ensemble of at least 2 states")
      for cfg in ({"params": {"gaussian_control": True, "count": 0}},
                  {"params": {"gaussian_control": True, "count": 1}},
                  {"sampler": {"steps": 2, "thin": 2}})),
    *(({"experiment": "flow", "params": {"richardson": True, "richardson_dts": dts}}, "flow",
       "needs at least three distinct Richardson time steps")
      for dts in ([0.002, 0.001], [0.001, 0.001, 0.0005])),
    *(({"experiment": "flow", "params": {"richardson": True, "richardson_dts": dts}}, "flow",
       "needs Richardson time steps 0 < dt <= the Richardson horizon")
      for dts in ([0.5, 0.002, 0.001], [0.002, 0.001, -0.001], [0.002, 0.001, 0.0])),
    ({"experiment": "gp-solve", "lattice": {"dim": 2, "n": 4},
      "model": {"kind": "gp", "potential": {"kind": "cosine"}, "lam": 0.5},
      "params": {"steps": 0}}, "gp-solve", "needs steps >= 1"),
    # a bracket the bisection in log N cannot halve: log 0 never leaves 0,
    # log of a negative mass is no number, and a reversed or empty bracket
    *(({"experiment": NORM, "params": {"bisect": True, "mass_lo": lo, "mass_hi": hi}}, NORM,
       "needs a bisection bracket 0 < mass_lo < mass_hi")
      for lo, hi in ((0.0, 64.0), (-1.0, 64.0), (64.0, 0.25), (8.0, 8.0))),
]


def _range_id(i, cfg):
    return f"{cfg.get('params', {}).get('task', cfg['experiment'])}-{i}"


@pytest.mark.parametrize("cfg,where,message", RANGE_ERRORS,
                         ids=[_range_id(i, c) for i, (c, _, _) in enumerate(RANGE_ERRORS)])
def test_ranges_the_computation_rejects_exit_2(tmp_path, cfg, where, message):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "-o", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(SchemaError, match=f"{re.escape(where)}: .*{re.escape(message)}"):
        validate_config(cfg)


# floats that json reads (json.dumps writes NaN, Infinity and -Infinity) but
# that no computation can use, the value they are rejected as and the fault
# named; a value that also has a wrong type is named by its type
NON_FINITE = [
    ({"experiment": "sample", "model": {"kind": "nls", "lam": math.nan}}, "config.model.lam",
     "a finite float"),
    ({"experiment": "flow", "flow": {"dt": math.nan}}, "config.flow.dt", "a finite float"),
    ({"experiment": "flow", "flow": {"t_final": math.inf}}, "config.flow.t_final",
     "a finite float"),
    ({"experiment": "flow", "params": {"richardson": True, "richardson_dts": [1e-3, -math.inf]}},
     "params.richardson_dts", "list[float] with finite values"),
    ({"experiment": "tail", "params": {"task": "decay_mass", "grid": [[7.5, math.nan]]}},
     "params.grid", "list[list[float]] with finite values"),
    ({"experiment": "flow", "params": {"richardson": True, "richardson_dts": [math.nan, "x"]}},
     "params.richardson_dts", "list[float]"),
]


@pytest.mark.parametrize("cfg,where,fault", NON_FINITE,
                         ids=[w if "finite" in f else f"{w}-wrong-type"
                              for _, w, f in NON_FINITE])
def test_non_finite_floats_exit_2(tmp_path, cfg, where, fault):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert re.search(r"\bNaN\b|\bInfinity\b", path.read_text())
    assert main(["run", str(path), "-o", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(SchemaError, match=f"^{re.escape(f'{where} must be {fault}')}$"):
        validate_config(json.loads(path.read_text()))


@pytest.mark.parametrize("exc", [ValueError("KdV field must be real"),
                                 GridResolutionError("grid of 5 points per axis cannot "
                                                     "hold modes up to |k| = 4")])
def test_fault_in_runner_exits_3(tmp_path, monkeypatch, exc):
    def boom(seed):
        raise exc

    monkeypatch.setitem(experiments._RUNNERS, "flow", boom)
    path, out = tmp_path / "flow.json", tmp_path / "out"
    path.write_text(json.dumps({"experiment": "flow", "seed": 0}))
    assert main(["run", str(path), "-o", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False and report["error"] == str(exc)


def test_tail_experiment_sobolev_tail(tmp_path):
    cfg = {"experiment": "tail", "seed": 3, "lattice": {"dim": 1, "n": 8},
           "sampler": {"steps": 4000, "thin": 2}}
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "st"))
    assert code == 0 and report["passed"] is True


def test_transport_coupling_experiment(tmp_path):
    # the analytic tail sums the reference's E|c_k|^2 = 2/|k|^2 over the
    # modes with some |k_j| > n: in 1D, 4 sum_{n < k <= N} k^-2 to the bit,
    # which is 4 (psi_1(n+1) - psi_1(N+1))
    from scipy.special import polygamma
    for dim, top in ((1, 512), (2, 24)):
        cfg = {"experiment": "transport", "seed": 5, "lattice": {"dim": dim, "n": top},
               "params": {"task": "coupling", "n_list": [4, 8], "n_samples": 2000}}
        report, code = run_experiment(cfg, output_dir=str(tmp_path / f"cp{dim}"))
        assert code == 0 and report["passed"] is True
        for row in report["results"]["rows"]:
            n = row["n"]
            if dim == 1:
                assert row["analytic"] == 4.0 * math.fsum(1.0 / k ** 2
                                                          for k in range(n + 1, top + 1))
                expect = 4.0 * float(polygamma(1, n + 1) - polygamma(1, top + 1))
            else:
                modes = np.array(list(np.ndindex(2 * top + 1, 2 * top + 1))) - top
                expect = math.fsum(2.0 / np.sum(modes[np.abs(modes).max(axis=1) > n] ** 2,
                                                axis=1))
            assert row["analytic"] == pytest.approx(expect, rel=1e-12)


def test_every_precondition_names_only_parameters_of_its_runner():
    # validation calls a check with the bound arguments its parameters name,
    # so a parameter its runner lacks would go missing or keep its default
    assert len(experiments._PRECONDITIONS) == 11
    for runner, check in experiments._PRECONDITIONS.items():
        names = set(inspect.signature(check).parameters)
        assert names <= set(inspect.signature(runner).parameters), (runner, check)


@pytest.mark.parametrize("n_samples", [0, 1, -5])
def test_coupling_needs_two_draws_exit_2(tmp_path, n_samples):
    # a row's stderr needs two draws: fewer is a schema fault (exit 2), not a numerical one
    cfg = {"experiment": "transport", "params": {"task": "coupling", "n_samples": n_samples}}
    with pytest.raises(SchemaError, match="^transport: needs n_samples >= 2 draws$"):
        run_experiment(cfg, output_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2


# task parameters that used to pass validation: an empty level list is no
# result (tail_sum and decay_mass passed on no rows, decay_mass after drawing
# its samples, and coupling had no gate), and sinkhorn_vs_exact clouds the
# solvers failed on with exit 3 (dim 0 as a zero eps, points 0 as a division
# by zero)
TASK_RANGE_ERRORS = [
    ({"task": "tail_sum", "n_list": []}, "needs at least one n"),
    ({"task": "coupling", "n_list": []}, "needs at least one truncation level n"),
    ({"task": "sinkhorn_vs_exact", "eps_rel": 0.0}, "eps must be > 0"),
    ({"task": "sinkhorn_vs_exact", "eps_rel": -1e-3}, "eps must be > 0"),
    ({"task": "sinkhorn_vs_exact", "dim": 0}, "needs points >= 1 and dim >= 1"),
    ({"task": "sinkhorn_vs_exact", "points": 0}, "needs points >= 1 and dim >= 1"),
    ({"task": "sinkhorn_vs_exact", "points": 300},
     "exact oracle is limited to 256 support points; use sinkhorn"),
    ({"task": "decay_mass", "grid": []}, "needs at least one (K1, K2) domain"),
]


@pytest.mark.parametrize("params,message", TASK_RANGE_ERRORS,
                         ids=["-".join(map(str, p.values())) for p, _ in TASK_RANGE_ERRORS])
def test_task_ranges_exit_2_before_any_work(tmp_path, params, message):
    kind = "tail" if params["task"] == "decay_mass" else "transport"
    cfg = {"experiment": kind, "params": params}
    with pytest.raises(SchemaError, match=f"^{kind}: {re.escape(message)}$"):
        run_experiment(cfg, output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_transport_coupling_at_its_defaults():
    # lattice n = 8: the n = 4 row is held to the lattice's own tail,
    # 4 sum_{4 < k <= 8} k^-2; n = 8 and 16 have no tail and are not gated
    report, code = run_experiment({"experiment": "transport",
                                   "params": {"task": "coupling"}})
    assert code == 0 and report["passed"] is True
    rows = {r["n"]: r for r in report["results"]["rows"]}
    assert rows[4]["analytic"] == pytest.approx(4.0 * sum(k ** -2.0 for k in range(5, 9)))
    assert rows[4]["rel_err"] < 0.05
    assert all(rows[n]["degenerate"] and "rel_err" not in rows[n] for n in (8, 16))


def test_lsi_experiment_critical_p6_prediction(tmp_path):
    # the critical p = 6 prediction alpha0 exp(-N M) needs params.n0 > N
    cfg = {"experiment": "lsi", "seed": 3, "lattice": {"dim": 1, "n": 8},
           "model": {"kind": "nls", "p": 6, "lam": 0.5},
           "domain": {"kind": "mass_and_sobolev", "mass": 1.0, "kappa": 0.02, "s": 0.35},
           "sampler": {"steps": 2000, "burn_in": 200, "thin": 2},
           "params": {"n0": 2.0}}
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "lsi6"))
    pred = report["results"]["prediction"]
    alpha = 0.5 * math.exp(-1.0 * ham.critical_convexification_mass(2.0, 0.02, 0.35))
    assert code == 0 and pred["in_regime"] and pred["alpha"] == pytest.approx(alpha)
    assert report["results"]["alpha_predicted"] == pred["alpha"]
    report, code = run_experiment(dict(cfg, params={}))
    assert code == 0
    assert report["results"]["prediction"] == {
        "alpha": None, "in_regime": False, "note": "requires 0 < lam <= 1 and N < N_0"}


@pytest.mark.parametrize("p, domain, params, missing", [
    (5, {"kind": "mass_ball", "mass": 1.0}, {}, "p = 5"),
    (6, {"kind": "mass_ball", "mass": 1.0}, {"n0": 2.0}, "domain's kappa, s"),
    (6, {"kind": "unrestricted"}, {"n0": 2.0}, "domain's mass N, kappa, s"),
])
def test_lsi_without_a_closed_form_reports_what_it_lacks(tmp_path, p, domain, params, missing):
    # an NLS model with no closed form at its p, or a critical p = 6 model on
    # a domain without the values its bound needs, still reports the chain's
    # LSI estimate (exit 0), with a prediction that names what is missing
    cfg = {"experiment": "lsi", "seed": 3, "lattice": {"dim": 1, "n": 8},
           "model": {"kind": "nls", "p": p, "lam": 0.5}, "domain": domain,
           "sampler": {"steps": 2000, "burn_in": 200, "thin": 2},
           "params": dict(params, max_mode=1)}
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "lsi"))
    assert code == 0 and report["passed"] is None
    pred = report["results"]["prediction"]
    assert pred["alpha"] is None and not pred["in_regime"] and missing in pred["note"]
    assert "alpha_predicted" not in report["results"]
    assert report["results"]["alpha_hat"] is not None


@pytest.mark.parametrize("lattice, model, note", [
    ({"dim": 1, "n": 8}, {"kind": "kdv", "lam": 0.5}, "mass bound required when lam > 0"),
    ({"dim": 2, "n": 4}, {"kind": "gp", "potential": {"kind": "cosine"}, "lam": 0.5},
     "the L^2 route's Sobolev constant is not computable"),
], ids=["kdv-unrestricted", "gp-cosine"])
def test_lsi_of_kdv_and_gp_without_a_constant_reports_why(tmp_path, lattice, model, note):
    # KdV at lam > 0 on an unrestricted domain has no closed form, nor has GP
    # with a potential that fails the bounded-V condition: the chain's LSI
    # estimate is still reported (exit 0), with a prediction that says why
    cfg = {"experiment": "lsi", "seed": 3, "lattice": lattice, "model": model,
           "sampler": {"steps": 2000, "burn_in": 200, "thin": 2},
           "params": {"max_mode": 1}}
    report, code = run_experiment(cfg, output_dir=str(tmp_path / "lsi"))
    assert code == 0 and report["passed"] is None
    pred = report["results"]["prediction"]
    assert pred["alpha"] is None and not pred["in_regime"] and note in pred["note"]
    assert "alpha_predicted" not in report["results"]
    assert report["results"]["alpha_hat"] is not None
