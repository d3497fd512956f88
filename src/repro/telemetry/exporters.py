"""Exporters: Prometheus text exposition and JSON snapshots.

Two serialisations of one :class:`~repro.telemetry.registry.MetricsRegistry`:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
  ``le``-bucket histograms, a ``repro_build_info`` info-metric carrying the
  run manifest) suitable for a file-based scrape or pushgateway.
* :func:`snapshot_registry` — a JSON-serialisable structure with the same
  content, written by ``repro simulate --json`` and the periodic snapshot
  files.

:func:`validate_exposition` is a self-contained lint of the exposition
format (name/label grammar, header presence, histogram invariants) used by
the CI smoke job and the test suite, so the exporter cannot silently drift
from what a real Prometheus scraper would accept.

File writes go through :func:`write_text_file`, which refuses to overwrite
an existing file unless ``force`` is set — the same contract ``repro trace
--out`` follows.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any

from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "render_prometheus",
    "snapshot_registry",
    "validate_exposition",
    "refuse_overwrite",
    "write_text_file",
    "PeriodicExporter",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"')
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Prometheus sample-value formatting (``+Inf``, integral floats bare)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_block(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in labels.items())
    return "{" + body + "}"


def render_prometheus(registry: MetricsRegistry, manifest: dict[str, Any] | None = None) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    if manifest:
        # Info-metric idiom: constant 1 with the manifest's scalar entries
        # as labels (nested structures don't fit the label model).
        info_labels = {
            key: str(value)
            for key, value in sorted(manifest.items())
            if isinstance(value, (str, int, float, bool))
        }
        lines.append("# HELP repro_build_info Run manifest (host, toolchain, topology).")
        lines.append("# TYPE repro_build_info gauge")
        lines.append(f"repro_build_info{_labels_block(info_labels)} 1")
    for family in registry.collect():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for labels, child in family.samples():
            block = _labels_block(labels)
            if isinstance(child, (Counter, Gauge)):
                lines.append(f"{family.name}{block} {_fmt(child.value)}")
            elif isinstance(child, Histogram):
                for upper, cum in child.cumulative():
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _fmt(upper)
                    lines.append(f"{family.name}_bucket{_labels_block(bucket_labels)} {cum}")
                lines.append(f"{family.name}_sum{block} {_fmt(child.sum)}")
                lines.append(f"{family.name}_count{block} {child.count}")
    return "\n".join(lines) + "\n"


def snapshot_registry(registry: MetricsRegistry) -> list[dict[str, Any]]:
    """The registry as a JSON-serialisable list of metric families."""
    out: list[dict[str, Any]] = []
    for family in registry.collect():
        samples: list[dict[str, Any]] = []
        for labels, child in family.samples():
            if isinstance(child, (Counter, Gauge)):
                samples.append({"labels": labels, "value": child.value})
            elif isinstance(child, Histogram):
                samples.append(
                    {
                        "labels": labels,
                        "buckets": [
                            ["+Inf" if math.isinf(le) else le, cum]
                            for le, cum in child.cumulative()
                        ],
                        "sum": child.sum,
                        "count": child.count,
                    }
                )
        out.append(
            {
                "name": family.name,
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        )
    return out


def _parse_value(text: str) -> float | None:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        return None


def validate_exposition(text: str) -> list[str]:
    """Lint a Prometheus text exposition; returns problems (empty = valid)."""
    problems: list[str] = []
    typed: dict[str, str] = {}
    helped: set[str] = set()
    # base name -> {labels-without-le -> last cumulative count} for bucket checks
    bucket_runs: dict[tuple[str, str], tuple[float, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                problems.append(f"line {lineno}: HELP without text")
            else:
                helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                problems.append(f"line {lineno}: malformed TYPE line {line!r}")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels_text = match.group("labels")
        labels: dict[str, str] = {}
        if labels_text:
            consumed = 0
            for lmatch in _LABEL_RE.finditer(labels_text):
                labels[lmatch.group(1)] = lmatch.group(2)
                consumed += len(lmatch.group(0))
            stripped = labels_text.replace(",", "")
            if consumed != len(stripped):
                problems.append(f"line {lineno}: malformed label block {{{labels_text}}}")
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(f"line {lineno}: unparseable value {match.group('value')!r}")
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name.removesuffix(suffix)
            if trimmed != name and typed.get(trimmed) == "histogram":
                base = trimmed
                break
        if base not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE header")
            continue
        if base not in helped and base != "repro_build_info":
            problems.append(f"line {lineno}: sample {name!r} has no HELP header")
        if typed[base] == "counter" and value < 0:
            problems.append(f"line {lineno}: counter {name!r} is negative ({value})")
        if name == base + "_bucket" and typed[base] == "histogram":
            le = _parse_value(labels.get("le", ""))
            if le is None:
                problems.append(f"line {lineno}: histogram bucket without valid 'le' label")
                continue
            series = (base, repr(sorted((k, v) for k, v in labels.items() if k != "le")))
            prev = bucket_runs.get(series)
            if prev is not None:
                prev_le, prev_cum = prev
                if le <= prev_le:
                    problems.append(f"line {lineno}: bucket le={le} not increasing")
                if value < prev_cum:
                    problems.append(f"line {lineno}: bucket count {value} decreased")
            bucket_runs[series] = (le, value)
    for (base, _), (last_le, _) in bucket_runs.items():
        if not math.isinf(last_le):
            problems.append(f"histogram {base!r}: bucket run does not end at le=+Inf")
    return problems


def refuse_overwrite(path: str | Path, force: bool = False) -> None:
    """Raise FileExistsError when ``path`` exists and ``force`` is false."""
    if Path(path).exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def write_text_file(path: str | Path, text: str, force: bool = False) -> Path:
    """Write ``text`` to ``path``; refuse to overwrite unless ``force``."""
    refuse_overwrite(path, force)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


class PeriodicExporter:
    """A sample listener that writes exposition/snapshot files as a run progresses.

    Register with :meth:`Telemetry.add_listener`; every ``every_samples``-th
    sample (and unconditionally on the final sample) it rewrites the
    configured Prometheus and/or JSON files in place — the file-based
    scrape pattern.  The overwrite guard applies once, up front: if a
    target exists and ``force`` is false, construction fails before the
    run starts rather than clobbering mid-run.
    """

    def __init__(
        self,
        prom_path: str | Path | None = None,
        json_path: str | Path | None = None,
        every_samples: int = 1,
        force: bool = False,
    ) -> None:
        if prom_path is None and json_path is None:
            raise ValueError("PeriodicExporter needs at least one output path")
        if every_samples < 1:
            raise ValueError(f"every_samples must be >= 1, got {every_samples!r}")
        self.prom_path = Path(prom_path) if prom_path is not None else None
        self.json_path = Path(json_path) if json_path is not None else None
        self.every_samples = every_samples
        self._samples_seen = 0
        for target in (self.prom_path, self.json_path):
            if target is not None:
                refuse_overwrite(target, force)

    def __call__(self, telemetry: Any, cycle: int) -> None:
        self._samples_seen += 1
        if self._samples_seen % self.every_samples and not telemetry.finished:
            return
        self.write(telemetry)

    def write(self, telemetry: Any) -> None:
        if self.prom_path is not None:
            self.prom_path.parent.mkdir(parents=True, exist_ok=True)
            self.prom_path.write_text(telemetry.export_prometheus())
        if self.json_path is not None:
            self.json_path.parent.mkdir(parents=True, exist_ok=True)
            self.json_path.write_text(json.dumps(telemetry.export_json(), indent=2) + "\n")
