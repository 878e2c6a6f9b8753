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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import linksim, predictor
from .atpc import CONTROLLER_METHODS, AtpcConfig, run_closed_loop
from .evaluate import evaluate as evaluate_trace
from .stats import sample_acf
from .trace import export_csv, ingest_csv


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


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is unset."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_acf(opts: dict) -> int:
    tr = ingest_csv(opts["in"], opts["interval"])
    est = sample_acf(tr, opts["max_lag"])
    lines = ["lag_s,acov,acf_norm,n_pairs,d1"]
    for i in range(len(est.lags)):
        lines.append(
            f"{est.lag_seconds[i]:.6f},{est.values[i]:.9f},"
            f"{est.normalized[i]:.9f},{est.n_pairs[i]},{est.d1[i]:.9f}"
        )
    _emit("\n".join(lines) + "\n", opts["out"])
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
    tr = ingest_csv(opts["in"], opts["interval"])
    model = predictor.fit_at_lag(tr, opts["method"], opts["lag"])
    _emit(predictor.model_to_json(model), opts["out"])
    return 0


def _cmd_predict(opts: dict) -> int:
    model = predictor.model_from_json(Path(opts["model"]).read_text(encoding="utf-8"))
    pred = predictor.predict(model, opts["anchor_rssi"], opts["anchor_slope"])
    out = {
        "value_dbm": round(pred.value, 6),
        "mse_db2": round(pred.mse, 6) if pred.mse is not None else None,
        "steps_ahead": pred.steps_ahead,
        "method": model.method,
    }
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_evaluate(opts: dict) -> int:
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
    _emit(result.to_csv_text(), opts["out"])
    return 0


@dataclass(frozen=True)
class _Opt:
    """One option of a subcommand: flag ``--name`` (dashes for underscores)
    and config key ``name``. A config value is converted and choice-checked
    exactly as argparse treats the flag."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def convert(self, raw: str):
        val = self.type(raw)
        if self.choices is not None and val not in self.choices:
            raise ValueError(
                f"invalid choice {val!r} (choose from {', '.join(self.choices)})")
        return val


_IN = _Opt("in", required=True)
_CHANNEL = _Opt("channel", str, "swell", linksim.CHANNEL_KINDS)
_RADIO = _Opt("radio", str, "cc2538", tuple(p.name for p in linksim.builtin_profiles()))
_PACKETS = _Opt("packets", int, 2000)
_SEED = _Opt("seed", int, 0)
_PATH_LOSS = _Opt("path_loss", float, 60.0)
_METHOD = _Opt("method", str, predictor.METHOD_ORTHONORMAL, predictor.METHODS)

# subcommand -> (handler, help, option rows in --help order)
_COMMANDS = {
    "acf": (_cmd_acf, "sample autocorrelation of a trace CSV", (
        _IN,
        _Opt("interval", float, 0.1, help="nominal packet interval, s"),
        _Opt("max_lag", int, 25),
        _Opt("out"),
    )),
    "simulate": (_cmd_simulate, "generate a synthetic trace CSV", (
        _CHANNEL, _RADIO, _PACKETS, _SEED,
        _Opt("loss", help="bernoulli:P or gilbert:PGB,PBG,LG,LB"),
        _Opt("tx_power", float),
        _PATH_LOSS,
        _Opt("out", required=True),
    )),
    "fit": (_cmd_fit, "fit a predictor and dump it as JSON", (
        _IN,
        _Opt("interval", float, 0.1),
        _METHOD,
        _Opt("lag", int, 1),
        _Opt("out"),
    )),
    "predict": (_cmd_predict, "apply a dumped model to an anchor", (
        _Opt("model", required=True),
        _Opt("anchor_rssi", float, required=True),
        _Opt("anchor_slope", float, 0.0),
    )),
    "evaluate": (_cmd_evaluate, "walk-forward RMSE over lags", (
        _IN,
        _Opt("interval", float, 0.1),
        _METHOD,
        _Opt("lags", str, "1,2,3", help="comma-separated lag steps, e.g. 1,2,3"),
        _Opt("out", required=True, help="report basename; writes .csv and .json"),
    )),
    "atpc": (_cmd_atpc, "run the closed power-control loop", (
        _CHANNEL, _RADIO,
        _Opt("threshold", float, -90.0),
        _Opt("margin", float, 3.0),
        _Opt("max_missed", int, 5),
        _Opt("method", str, predictor.METHOD_ORTHONORMAL, CONTROLLER_METHODS),
        _PACKETS, _SEED,
        _Opt("loss"),
        _PATH_LOSS,
        _Opt("out"),
    )),
}


def _options(command: str, args: dict) -> dict:
    """Merge defaults < config file < explicit flags, then check required
    options."""
    table = {o.name: o for o in _COMMANDS[command][2]}
    opts = {name: o.default for name, o in table.items()}
    if args["config"]:
        for key, raw in _parse_config(args["config"]).items():
            if key not in table:
                raise _CliError(f"unknown config key {key!r}")
            try:
                opts[key] = table[key].convert(raw)
            except ValueError as exc:
                raise _CliError(f"config key {key!r}: {exc}") from exc
    opts.update((k, v) for k, v in args.items() if k not in ("command", "config"))
    for o in table.values():
        if o.required and opts[o.name] is None:
            raise _CliError(f"{command}: {o.flag} is required")
    return opts


def _build_parser() -> _Parser:
    parser = _Parser(prog="rssikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in table:
            p.add_argument(o.flag, dest=o.name, type=o.type, choices=o.choices,
                           default=argparse.SUPPRESS, help=o.help)
        p.add_argument("--config", help="flat key = value file; flags win")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
        handler = _COMMANDS[args["command"]][0]
        return handler(_options(args["command"], args))
    except (_CliError, ValueError) as exc:
        print(f"rssikit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rssikit: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
