"""Command-line front end.

One subcommand per observable, plus ``run`` for batch jobs driven by a
JSON or YAML config.  All commands write deterministic columnar text
files (or the structured JSON twin via --format structured); nothing
here plots.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import __version__, ensemble, io
from .dynamics import default_times
from .correlations import default_taus
from .model import CavityGeometry, FillingMode, LatticeSpec, PhysicalParams
from .sampling import sample_realization
from .solver import SolverError
from .transfer_matrix import compare_markovian, gap_phase


class ConfigError(ValueError):
    pass


def parse_theta(text):
    """Lattice phase from '0.95pi', 'pi/2', '2pi/3', or a plain number."""
    s = str(text).strip().lower().replace(" ", "").replace("*", "")
    m = re.fullmatch(r"([0-9]*\.?[0-9]*)pi(?:/([0-9]*\.?[0-9]+))?", s)
    try:
        if m:
            coef = float(m.group(1)) if m.group(1) else 1.0
            div = float(m.group(2)) if m.group(2) else 1.0
            value = coef * math.pi / div
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("cannot parse angle %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("angle %r is not finite" % text)
    return value


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its rejection of a setting as a
    ConfigError.

    Every command builds its inputs through here before any work starts,
    so a bad setting exits 2 instead of failing mid-run.
    """
    try:
        return build(*args, **kwargs)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(str(exc))


def _grid(start, stop, steps):
    """``np.linspace(start, stop, steps)``, unless it has no point or a
    point is not finite."""
    if steps < 1:
        raise ValueError("grid needs at least 1 point, not %d" % steps)
    with np.errstate(all="ignore"):
        grid = np.linspace(start, stop, steps)
    if not np.isfinite(np.r_[start, stop, grid]).all():
        raise ValueError("grid from %r to %r is not finite" % (start, stop))
    return grid


def _seed(seed):
    """``--seed``, a Philox key: 0 <= seed < 2**128."""
    if not 0 <= seed < 2 ** 128:
        raise ConfigError("--seed must be in [0, 2**128), not %d" % seed)
    return seed


def _workers(flag):
    """``--workers``, else ``WGQED_WORKERS``, else 1; at least 1."""
    name, text = (("--workers", flag) if flag is not None else
                  ("WGQED_WORKERS", os.environ.get("WGQED_WORKERS", "1")))
    try:
        workers = int(text)
    except ValueError:
        raise ValueError("%s=%r is not an integer" % (name, text))
    if workers < 1:
        raise ValueError("%s must be >= 1, not %d" % (name, workers))
    return workers


def _add_output(p, default_name):
    p.add_argument("--out", default=default_name, help="output file path")
    p.add_argument("--format", choices=[io.FORMAT_COLUMNS, io.FORMAT_STRUCTURED],
                   default=io.FORMAT_COLUMNS)


def _add_physics(p):
    p.add_argument("--theta", type=parse_theta, default="pi",
                   help="lattice phase k_a d (accepts e.g. 'pi/2', '0.95pi')")
    p.add_argument("--gamma-prime", type=float, default=0.0)
    p.add_argument("--sigma-ih", type=float, default=0.0)
    p.add_argument("--drive-amp", type=float, default=1e-4)


def _add_lattice(p, n_sites=True, filling=True):
    if n_sites:
        p.add_argument("--n-sites", type=int, default=100)
    if filling:
        p.add_argument("--filling", type=float, default=1.0)
    p.add_argument("--filling-mode", choices=[m.value for m in FillingMode],
                   default=FillingMode.FIXED_COUNT.value)


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0)


def _add_ensemble(p):
    p.add_argument("--samples", type=int, default=ensemble.DEFAULT_SAMPLES)
    _add_seed(p)
    p.add_argument("--workers", type=int,
                   help="process count (default from WGQED_WORKERS, else 1)")


def _add_delta_range(p):
    p.add_argument("--delta-min", type=float, default=-20.0)
    p.add_argument("--delta-max", type=float, default=20.0)
    p.add_argument("--delta-steps", type=int, default=401)


def _params(ns, delta=0.0, eta=0.0):
    return _checked(PhysicalParams, theta=ns.theta,
                    gamma_prime=ns.gamma_prime, sigma_ih=ns.sigma_ih,
                    drive_amp=ns.drive_amp, delta=delta, eta=eta)


def _lattice(ns, n_sites=None, filling=None):
    """The lattice of the flags, or with ``n_sites``/``filling`` replaced."""
    return _checked(LatticeSpec,
                    ns.n_sites if n_sites is None else n_sites,
                    ns.filling if filling is None else filling,
                    FillingMode(ns.filling_mode))


def _progress(label):
    def cb(done, total):
        step = max(1, total // 10)
        if done == total or done % step == 0:
            print("%s: %d/%d realizations" % (label, done, total),
                  file=sys.stderr)
    return cb


def _resolved(ns):
    # workers is scheduling, not physics: identical seeds must give
    # byte-identical files no matter how the work was spread out.
    skip = {"func", "out", "format", "workers"}
    out = {}
    for k, v in sorted(vars(ns).items()):
        if k in skip or callable(v):
            continue
        out[k] = v
    return out


def _write(ns, names, columns, meta, units):
    io.write_result(ns.out, names, columns, meta, units, ns.format)
    print("wrote %s" % ns.out, file=sys.stderr)


def _run_args(ns):
    """Sample count, seed, workers and progress for an ensemble driver."""
    if ns.samples < 1:
        raise ConfigError("--samples must be >= 1")
    return dict(n_samples=ns.samples, master_seed=_seed(ns.seed),
                workers=_checked(_workers, ns.workers),
                progress=_progress(ns.command))


def _write_ensemble(ns, res, units):
    meta = {"config": _resolved(ns), "master_seed": res.master_seed,
            "samples_ok": res.count}
    if res.failures:
        index, reason = res.failures[0]
        meta["failures"] = {"count": len(res.failures),
                            "first": "index %s: %s" % (index, str(reason)[:200]),
                            "indices": [i for i, _ in res.failures]}
    _write(ns, list(res.columns), list(res.columns.values()), meta, units)
    return 0


def cmd_spectrum(ns):
    deltas = _checked(_grid, ns.delta_min, ns.delta_max, ns.delta_steps)
    res = ensemble.spectrum_ensemble(_lattice(ns), _params(ns), deltas,
                                     **_run_args(ns))
    return _write_ensemble(ns, res, {"delta": "gamma0"})


def cmd_kd_scan(ns):
    thetas = _checked(_grid, _checked(parse_theta, ns.theta_min),
                      _checked(parse_theta, ns.theta_max), ns.theta_steps)
    res = ensemble.kd_scan(_lattice(ns), _params(ns, delta=ns.delta), thetas,
                           **_run_args(ns))
    return _write_ensemble(ns, res, {"theta": "rad", "delta": "gamma0"})


def cmd_filling_scan(ns):
    fillings = _checked(_grid, ns.p_min, ns.p_max, ns.p_steps)
    for p in fillings:
        _lattice(ns, filling=float(p))
    res = ensemble.filling_scan(ns.n_sites, _params(ns, delta=ns.delta),
                                fillings, FillingMode(ns.filling_mode),
                                **_run_args(ns))
    return _write_ensemble(ns, res, {"delta": "gamma0"})


def cmd_rabi(ns):
    geom = _checked(CavityGeometry, ns.mirror_sites, ns.theta, ns.theta0)
    _lattice(ns, n_sites=geom.mirror_sites)     # each mirror's filling
    times = _checked(default_times, ns.t_max, ns.t_steps)
    res = ensemble.rabi_ensemble(geom, ns.filling, _params(ns), times,
                                 FillingMode(ns.filling_mode), **_run_args(ns))
    return _write_ensemble(ns, res, {"t": "1/gamma0"})


def cmd_g2(ns):
    taus = _checked(default_taus, ns.tau_max, ns.tau_steps)
    res = ensemble.g2_ensemble(_lattice(ns), _params(ns, delta=ns.delta),
                               taus, ns.port, ns.average, **_run_args(ns))
    return _write_ensemble(ns, res, {"tau": "1/gamma0"})


def cmd_tm_compare(ns):
    lattice, params = _lattice(ns), _params(ns, eta=ns.eta)
    deltas = _checked(_grid, ns.delta_min, ns.delta_max, ns.delta_steps)
    # a gap of n_sites bounds the phase of every gap in the chain
    _checked(gap_phase, ns.theta, ns.n_sites, deltas, ns.eta)
    real = sample_realization(lattice, ns.sigma_ih, _seed(ns.seed), 0)
    res = compare_markovian(real, params, deltas)
    _write(ns, ["delta", "T_markov", "R_markov", "T_cascade", "R_cascade",
                "dT", "dR"],
           [res.deltas, res.T_markov, res.R_markov, res.T_cascade,
            res.R_cascade, res.dT, res.dR],
           {"config": _resolved(ns), "master_seed": ns.seed,
            "max_dT": res.max_dT, "mean_dT": res.mean_dT,
            "max_dR": res.max_dR, "mean_dR": res.mean_dR},
           {"delta": "gamma0"})
    return 0


def cmd_run(ns):
    cfg = io.load_config(ns.config)
    if not isinstance(cfg, dict) or "jobs" not in cfg:
        raise ConfigError("config must be a mapping with a 'jobs' list")
    defaults = cfg.get("defaults", {})
    os.makedirs(ns.out_dir, exist_ok=True)
    entries = []
    for job in cfg["jobs"]:
        if "command" not in job:
            raise ConfigError("every job needs a 'command'")
        args = dict(defaults)
        args.update(job.get("args", {}))
        tokens = [job["command"]]
        for key, value in sorted(args.items()):
            flag = "--" + str(key).replace("_", "-").lstrip("-")
            tokens.extend([flag, str(value)])
        name = job.get("name", job["command"])
        out = job.get("out", os.path.join(ns.out_dir, name + ".dat"))
        tokens.extend(["--out", out])
        if "format" in job:
            tokens.extend(["--format", job["format"]])
        code = _dispatch(tokens)
        if code != 0:
            return code
        entries.append({"name": name, "command": job["command"],
                        "out": out, "sha256": io.sha256_file(out),
                        "args": args})
    manifest = os.path.join(ns.out_dir, "manifest.json")
    io.write_manifest(manifest, entries)
    print("wrote %s" % manifest, file=sys.stderr)
    return 0


def build_parser():
    top = argparse.ArgumentParser(
        prog="wgqed",
        description="Disordered atom chains on a waveguide: spectra, "
                    "Rabi dynamics, photon correlations.")
    top.add_argument("--version", action="version",
                     version="wgqed %s" % __version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="ensemble transmission/reflection "
                                        "versus drive detuning")
    _add_lattice(p)
    _add_physics(p)
    _add_ensemble(p)
    _add_delta_range(p)
    _add_output(p, "spectrum.dat")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("kd-scan", help="optical depth versus lattice phase")
    _add_lattice(p)
    _add_physics(p)
    _add_ensemble(p)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--theta-min", default="0.05pi")
    p.add_argument("--theta-max", default="1.95pi")
    p.add_argument("--theta-steps", type=int, default=39)
    _add_output(p, "kd_scan.dat")
    p.set_defaults(func=cmd_kd_scan)

    p = sub.add_parser("filling-scan", help="optical depth versus filling")
    _add_lattice(p, filling=False)
    _add_physics(p)
    _add_ensemble(p)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--p-min", type=float, default=0.1)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--p-steps", type=int, default=10)
    _add_output(p, "filling_scan.dat")
    p.set_defaults(func=cmd_filling_scan)

    p = sub.add_parser("rabi", help="central-atom population between "
                                    "atomic mirrors")
    _add_physics(p)
    _add_ensemble(p)
    p.add_argument("--mirror-sites", type=int, default=50)
    p.add_argument("--theta0", type=parse_theta, default="1.5pi",
                   help="phase between the central atom and each mirror")
    _add_lattice(p, n_sites=False)
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--t-steps", type=int, default=2000)
    _add_output(p, "rabi.dat")
    p.set_defaults(func=cmd_rabi)

    p = sub.add_parser("g2", help="second-order correlation of one "
                                  "output port")
    _add_lattice(p)
    _add_physics(p)
    _add_ensemble(p)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=30.0)
    p.add_argument("--tau-steps", type=int, default=1500)
    p.add_argument("--port", choices=["transmitted", "reflected"],
                   default="transmitted")
    p.add_argument("--average", choices=["g2", "G2"], default="g2")
    _add_output(p, "g2.dat")
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("tm-compare", help="Markovian solver against the "
                                          "retarded transfer-matrix cascade")
    _add_lattice(p)
    _add_physics(p)
    _add_seed(p)
    p.add_argument("--eta", type=float, default=1e-6,
                   help="retardation ratio gamma0/omega_a")
    _add_delta_range(p)
    _add_output(p, "tm_compare.dat")
    p.set_defaults(func=cmd_tm_compare)

    p = sub.add_parser("run", help="batch jobs from a JSON/YAML config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_run)

    return top


def _dispatch(argv):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print("wgqed: configuration error: %s" % exc, file=sys.stderr)
        return 2
    except (SolverError, RuntimeError) as exc:
        print("wgqed: numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("wgqed: %s" % exc, file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return _dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
