"""Netlist text format: one branch per line.

    branch_id  start_node  end_node  element_spec

Element specs: ``R <ohms>``, ``L <henries>``, ``C <farads>``,
``I <amps or file:wave.csv>``, ``V <volts or file:wave.csv>``.
Values are bare SI numbers or unit-suffixed quantities with the
matching unit (``2.555ohm``, ``100nF``).  ``#`` starts a comment; blank
lines are ignored.  ``file:`` source references are resolved relative
to the netlist's own directory.  A node named ``0`` or ``gnd`` becomes
the reference node.
"""

from __future__ import annotations

from pathlib import Path

from .config import parse_quantity
from .elements import (Capacitor, CurrentSource, Element, Inductor, Resistor,
                       VoltageSource)
from .errors import ConfigError, NetlistError
from .topology import Branch, Network
from .waveform import Waveform, read_waveform_csv, write_waveform_csv

_UNIT_FOR = {"R": "ohm", "L": "H", "C": "F", "I": "A", "V": "V"}


def _parse_value(kind: str, token: str, where: str) -> float:
    try:
        value, unit = parse_quantity(token)
    except ConfigError as exc:
        raise NetlistError(f"{where}: {exc}") from exc
    want = _UNIT_FOR[kind]
    if unit not in ("", want):
        raise NetlistError(
            f"{where}: {kind} value {token!r} has unit {unit!r}, expected "
            f"{want!r} (or a bare SI number)")
    return value


def _element_from_spec(kind: str, token: str, base_dir: Path | None,
                       where: str) -> Element:
    if kind in ("I", "V") and token.startswith("file:"):
        ref = token[len("file:"):]
        if not ref:
            raise NetlistError(f"{where}: empty file reference")
        path = Path(ref)
        if not path.is_absolute():
            path = (base_dir or Path.cwd()) / path
        wave = read_waveform_csv(path)
        return CurrentSource(wave) if kind == "I" else VoltageSource(wave)
    value = _parse_value(kind, token, where)
    if kind == "R":
        return Resistor(value, allow_negative=True)
    if kind == "L":
        return Inductor(value)
    if kind == "C":
        return Capacitor(value)
    if kind == "I":
        return CurrentSource(value)
    return VoltageSource(value)


def parse_netlist(text: str, base_dir=None, source: str = "<netlist>",
                  reference: str | None = None) -> Network:
    """Parse netlist text into a Network.

    ``reference`` overrides the ground-node convention (``0``/``gnd``).
    """
    base_dir = Path(base_dir) if base_dir is not None else None
    branches: list[Branch] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        parts = line.split()
        if len(parts) != 5:
            raise NetlistError(
                f"{where}: expected 'id start end kind value', got {raw!r}")
        branch_id, start, end, kind, token = parts
        if kind not in _UNIT_FOR:
            raise NetlistError(
                f"{where}: unknown element kind {kind!r}; "
                f"one of {sorted(_UNIT_FOR)}")
        element = _element_from_spec(kind, token, base_dir, where)
        branches.append(Branch(branch_id, start, end, element))
    if not branches:
        raise NetlistError(f"{source}: no branches")

    if reference is None:
        nodes = {n for br in branches for n in (br.start, br.end)}
        reference = "0" if "0" in nodes else ("gnd" if "gnd" in nodes else None)
    return Network.from_branches(branches, reference=reference)


def read_netlist(path, reference: str | None = None) -> Network:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise NetlistError(f"cannot read netlist {path}: {exc}") from exc
    return parse_netlist(text, base_dir=path.parent, source=str(path),
                         reference=reference)


def _spec_for(branch: Branch, waveform_dir: Path | None) -> str:
    el = branch.element
    if isinstance(el, Resistor):
        return f"R {el.ohms:.17g}"
    if isinstance(el, Inductor):
        return f"L {el.henries:.17g}"
    if isinstance(el, Capacitor):
        return f"C {el.farads:.17g}"
    if isinstance(el, (CurrentSource, VoltageSource)):
        kind = "I" if isinstance(el, CurrentSource) else "V"
        value = el.amps if isinstance(el, CurrentSource) else el.volts
        if isinstance(value, Waveform):
            if waveform_dir is None:
                raise NetlistError(
                    f"branch {branch.id!r} carries a waveform source; "
                    "emitting it needs a directory for the sidecar CSV")
            name = f"{branch.id}.csv"
            write_waveform_csv(waveform_dir / name, value)
            return f"{kind} file:{name}"
        return f"{kind} {value:.17g}"
    raise NetlistError(
        f"branch {branch.id!r}: cannot emit element {type(el).__name__}")


def emit_netlist(net: Network, waveform_dir=None) -> str:
    """Render a network back into netlist text.

    Waveform-valued sources are written as ``<branch_id>.csv`` sidecar
    files under ``waveform_dir`` and referenced with ``file:``.
    """
    waveform_dir = Path(waveform_dir) if waveform_dir is not None else None
    lines = [f"# pulsenet netlist ({len(net.nodes)} nodes, "
             f"{len(net.branches)} branches)"]
    for br in net.branches:
        lines.append(f"{br.id} {br.start} {br.end} {_spec_for(br, waveform_dir)}")
    return "\n".join(lines) + "\n"


def write_netlist(net: Network, path) -> None:
    """Write the netlist (and any waveform sidecars) next to ``path``."""
    path = Path(path)
    path.write_text(emit_netlist(net, waveform_dir=path.parent),
                    encoding="ascii")
