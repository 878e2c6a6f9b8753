"""Command-line surface: ingest, simulate, fit, predict, evaluate, and run
the closed power-control loop.

All outputs are deterministic for fixed flags and seed. Exit codes: 0 on
success, 1 on validation errors, 2 on I/O errors. Every subcommand accepts
``--config FILE`` pointing at a flat ``key = value`` text file whose keys
mirror the long flag names; explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import linksim, predictor
from .atpc import AtpcConfig, run_closed_loop
from .evaluate import evaluate as evaluate_trace
from .stats import sample_acf
from .trace import derivative_series, export_csv, ingest_csv


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the toolkit reserves 2 for
    # I/O errors, so route usage problems through the validation path.
    def error(self, message):
        raise _CliError(message)


def _parse_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_options(args: argparse.Namespace, defaults: dict, types: dict) -> dict:
    """defaults < config file < explicit flags."""
    opts = dict(defaults)
    provided = vars(args)
    config_path = provided.get("config")
    if config_path:
        for key, raw in _parse_config(config_path).items():
            if key not in defaults:
                raise _CliError(f"unknown config key {key!r}")
            conv = types.get(key, str)
            try:
                opts[key] = conv(raw)
            except ValueError as exc:
                raise _CliError(f"config key {key!r}: {exc}") from exc
    for key, val in provided.items():
        if key in ("command", "config"):
            continue
        opts[key] = val
    return opts


def _parse_loss(spec: str | None, seed: int) -> linksim.LossModel | None:
    """Loss flag syntax: ``bernoulli:P`` or ``gilbert:PGB,PBG,LG,LB``."""
    if spec in (None, "", "none"):
        return None
    kind, _, rest = spec.partition(":")
    try:
        if kind == "bernoulli":
            return linksim.bernoulli_loss(float(rest), seed=seed)
        if kind in ("gilbert", "gilbert_elliott"):
            parts = [float(x) for x in rest.split(",")]
            if len(parts) != 4:
                raise ValueError("expected 4 comma-separated probabilities")
            return linksim.gilbert_elliott_loss(*parts, seed=seed)
    except ValueError as exc:
        raise _CliError(f"bad loss spec {spec!r}: {exc}") from exc
    raise _CliError(f"bad loss spec {spec!r}: unknown kind {kind!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise _CliError(f"bad lag list {text!r}") from exc


def _cmd_acf(opts: dict) -> int:
    tr = ingest_csv(opts["in"], opts["interval"])
    est = sample_acf(tr, opts["max_lag"])
    lines = ["lag_s,acov,acf_norm,n_pairs,d1"]
    for i in range(len(est.lags)):
        lines.append(
            f"{est.lag_seconds[i]:.6f},{est.values[i]:.9f},"
            f"{est.normalized[i]:.9f},{est.n_pairs[i]},{est.d1[i]:.9f}"
        )
    text = "\n".join(lines) + "\n"
    if opts["out"]:
        Path(opts["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(opts: dict) -> int:
    radio = linksim.profile_by_name(opts["radio"])
    channel = linksim.channel_by_name(
        opts["channel"], seed=opts["seed"], base_path_loss_db=opts["path_loss"]
    )
    tx = radio.max_tx_dbm if opts["tx_power"] is None else opts["tx_power"]
    tr = linksim.generate_trace(channel, radio, tx, opts["packets"])
    loss = _parse_loss(opts["loss"], seed=opts["seed"] + 1)
    if loss is not None:
        tr = linksim.apply_loss(tr, loss)
    export_csv(tr, opts["out"])
    return 0


def _cmd_fit(opts: dict) -> int:
    if opts["method"] not in predictor.METHODS:
        raise _CliError(f"unknown method {opts['method']!r}")
    tr = ingest_csv(opts["in"], opts["interval"])
    model = predictor.fit_at_lag(tr, derivative_series(tr), opts["method"], opts["lag"])
    text = predictor.model_to_json(model)
    if opts["out"]:
        Path(opts["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_predict(opts: dict) -> int:
    model = predictor.model_from_json(Path(opts["model"]).read_text(encoding="utf-8"))
    pred = predictor.predict(
        model, opts["anchor_rssi"], opts["anchor_slope"], n_steps=opts["steps"]
    )
    out = {
        "value_dbm": round(pred.value, 6),
        "mse_db2": round(pred.mse, 6) if pred.mse is not None else None,
        "steps_ahead": pred.steps_ahead,
        "method": model.method,
    }
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_evaluate(opts: dict) -> int:
    if opts["method"] not in predictor.METHODS:
        raise _CliError(f"unknown method {opts['method']!r}")
    tr = ingest_csv(opts["in"], opts["interval"])
    report = evaluate_trace(tr, opts["method"], _int_list(opts["lags"]))
    base = Path(opts["out"])
    report.write_csv(base.with_suffix(".csv"))
    report.write_json(base.with_suffix(".json"))
    return 0


def _cmd_atpc(opts: dict) -> int:
    radio = linksim.profile_by_name(opts["radio"])
    channel = linksim.channel_by_name(
        opts["channel"], seed=opts["seed"], base_path_loss_db=opts["path_loss"]
    )
    config = AtpcConfig(
        radio=radio,
        threshold_dbm=opts["threshold"],
        margin_db=opts["margin"],
        max_missed_acks=opts["max_missed"],
        predictor_method=opts["method"],
    )
    loss = _parse_loss(opts["loss"], seed=opts["seed"] + 1)
    result = run_closed_loop(channel, config, opts["packets"], loss=loss)
    lines = ["seq,tx_dbm,rssi_dbm,delivered,predicted,mode"]
    for r in result.records:
        pred = f"{r.predicted_dbm:.2f}" if r.predicted_dbm is not None else ""
        lines.append(
            f"{r.seq},{r.tx_dbm:.2f},{r.rssi_dbm:.2f},{int(r.delivered)},{pred},{r.mode}"
        )
    text = "\n".join(lines) + "\n"
    if opts["out"]:
        Path(opts["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


_SUBCOMMANDS = {
    "acf": (
        _cmd_acf,
        {"in": None, "interval": 0.1, "max_lag": 25, "out": None},
        {"interval": float, "max_lag": int, "in": str, "out": str},
    ),
    "simulate": (
        _cmd_simulate,
        {"channel": "swell", "radio": "cc2538", "packets": 2000, "seed": 0,
         "loss": None, "tx_power": None, "path_loss": 60.0, "out": None},
        {"channel": str, "radio": str, "packets": int, "seed": int, "loss": str,
         "tx_power": float, "path_loss": float, "out": str},
    ),
    "fit": (
        _cmd_fit,
        {"in": None, "interval": 0.1, "method": "orthonormal", "lag": 1,
         "out": None},
        {"in": str, "interval": float, "method": str, "lag": int, "out": str},
    ),
    "predict": (
        _cmd_predict,
        {"model": None, "anchor_rssi": None, "anchor_slope": 0.0, "steps": 1},
        {"model": str, "anchor_rssi": float, "anchor_slope": float, "steps": int},
    ),
    "evaluate": (
        _cmd_evaluate,
        {"in": None, "interval": 0.1, "method": "orthonormal",
         "lags": "1,2,3", "out": None},
        {"in": str, "interval": float, "method": str, "lags": str, "out": str},
    ),
    "atpc": (
        _cmd_atpc,
        {"channel": "swell", "radio": "cc2538", "threshold": -90.0, "margin": 3.0,
         "max_missed": 5, "method": "orthonormal", "packets": 2000, "seed": 0,
         "loss": None, "path_loss": 60.0, "out": None},
        {"channel": str, "radio": str, "threshold": float, "margin": float,
         "max_missed": int, "method": str, "packets": int, "seed": int,
         "loss": str, "path_loss": float, "out": str},
    ),
}

_REQUIRED = {
    "acf": ("in",),
    "simulate": ("out",),
    "fit": ("in",),
    "predict": ("model", "anchor_rssi"),
    "evaluate": ("in", "out"),
    "atpc": (),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rssikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("acf", help="sample autocorrelation of a trace CSV")
    p.add_argument("--in")
    p.add_argument("--interval", type=float, help="nominal packet interval, s")
    p.add_argument("--max-lag", dest="max_lag", type=int)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="generate a synthetic trace CSV")
    p.add_argument("--channel", choices=linksim.CHANNEL_KINDS)
    p.add_argument("--radio", choices=["cc2538", "cc1200"])
    p.add_argument("--packets", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss", help="bernoulli:P or gilbert:PGB,PBG,LG,LB")
    p.add_argument("--tx-power", dest="tx_power", type=float)
    p.add_argument("--path-loss", dest="path_loss", type=float)
    p.add_argument("--out")

    p = sub.add_parser("fit", help="fit a predictor and dump it as JSON")
    p.add_argument("--in")
    p.add_argument("--interval", type=float)
    p.add_argument("--method", choices=predictor.METHODS)
    p.add_argument("--lag", type=int)
    p.add_argument("--out")

    p = sub.add_parser("predict", help="apply a dumped model to an anchor")
    p.add_argument("--model")
    p.add_argument("--anchor-rssi", dest="anchor_rssi", type=float)
    p.add_argument("--anchor-slope", dest="anchor_slope", type=float)
    p.add_argument("--steps", type=int)

    p = sub.add_parser("evaluate", help="walk-forward RMSE over lags")
    p.add_argument("--in")
    p.add_argument("--interval", type=float)
    p.add_argument("--method", choices=predictor.METHODS)
    p.add_argument("--lags", help="comma-separated lag steps, e.g. 1,2,3")
    p.add_argument("--out", help="report basename; writes .csv and .json")

    p = sub.add_parser("atpc", help="run the closed power-control loop")
    p.add_argument("--channel", choices=linksim.CHANNEL_KINDS)
    p.add_argument("--radio", choices=["cc2538", "cc1200"])
    p.add_argument("--threshold", type=float)
    p.add_argument("--margin", type=float)
    p.add_argument("--max-missed", dest="max_missed", type=int)
    p.add_argument("--method", choices=["orthonormal", "simplified"])
    p.add_argument("--packets", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss")
    p.add_argument("--path-loss", dest="path_loss", type=float)
    p.add_argument("--out")

    for sp in sub.choices.values():
        sp.add_argument("--config", help="flat key = value file; flags win")
        for action in sp._actions:
            if action.dest not in ("help", "config"):
                action.default = argparse.SUPPRESS
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler, defaults, types = _SUBCOMMANDS[args.command]
        opts = _merge_options(args, defaults, types)
        for key in _REQUIRED[args.command]:
            if opts.get(key) is None:
                flag = "--" + key.replace("_", "-")
                raise _CliError(f"{args.command}: {flag} is required")
        return handler(opts)
    except (_CliError, ValueError) as exc:
        print(f"rssikit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rssikit: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
