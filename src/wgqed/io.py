"""Deterministic result files and batch-job configuration.

The columnar text format is plain whitespace-separated numbers under
``#`` header lines carrying the package version, the resolved
configuration, the master seed, and per-column units.  Floats are
written with 17 significant digits, so parsing a file and writing it
again reproduces it byte for byte.

The generation timestamp honours SOURCE_DATE_EPOCH; set it when
byte-identical reruns are required, otherwise the wall clock is used.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__

FORMAT_COLUMNS = "columns"
FORMAT_STRUCTURED = "structured"


def timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else time.time()
    return datetime.fromtimestamp(t, timezone.utc).isoformat()


def format_float(x) -> str:
    return "%.17g" % float(x)


def _meta_lines(meta):
    # reusing a parsed "generated" value keeps read -> write byte-stable
    stamp = meta.get("generated") or timestamp()
    lines = ["# wgqed %s" % __version__, "# generated: %s" % stamp]
    for key in sorted(meta):
        if key == "generated":
            continue
        value = meta[key]
        if not isinstance(value, str):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        lines.append("# %s: %s" % (key, value))
    return lines


def write_columns(path, names, columns, meta=None, units=None):
    """Write aligned 1-d arrays as a columnar text file with # headers."""
    units = units or {}
    arrays = [np.asarray(c, dtype=float) for c in columns]
    if len(arrays) != len(names):
        raise ValueError("names and columns must align")
    if arrays and any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("all columns must share one length")
    lines = _meta_lines(meta or {})
    lines.append("# columns: " + " ".join(
        "%s(%s)" % (n, units.get(n, "1")) for n in names))
    for row in zip(*arrays):
        lines.append(" ".join(format_float(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_columns(path):
    """Parse a columnar file back into ({name: array}, meta dict)."""
    names = []
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("columns:"):
                    names = [tok.split("(")[0]
                             for tok in body[len("columns:"):].split()]
                elif ":" in body:
                    key, _, rest = body.partition(":")
                    rest = rest.strip()
                    try:
                        meta[key.strip()] = json.loads(rest)
                    except ValueError:
                        meta[key.strip()] = rest
                continue
            if line.strip():
                rows.append([float(tok) for tok in line.split()])
    data = {}
    if names and rows:
        arr = np.array(rows, dtype=float)
        for i, n in enumerate(names):
            data[n] = arr[:, i]
    elif names:
        for n in names:
            data[n] = np.zeros(0)
    return data, meta


def write_structured(path, names, columns, meta=None, units=None):
    """JSON twin of the columnar format, same content, nested layout."""
    payload = {
        "generator": "wgqed %s" % __version__,
        "generated": timestamp(),
        "meta": meta or {},
        "units": units or {},
        "columns": {n: [float(x) for x in np.asarray(c, dtype=float)]
                    for n, c in zip(names, columns)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_result(path, names, columns, meta=None, units=None,
                 fmt=FORMAT_COLUMNS):
    if fmt == FORMAT_COLUMNS:
        write_columns(path, names, columns, meta, units)
    elif fmt == FORMAT_STRUCTURED:
        write_structured(path, names, columns, meta, units)
    else:
        raise ValueError("unknown format %r" % fmt)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, entries):
    """Manifest of a batch run: one entry per job with its output hash."""
    payload = {"generator": "wgqed %s" % __version__,
               "generated": timestamp(),
               "jobs": entries}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path):
    """Batch configuration from JSON or YAML, decided by file suffix.

    A file with neither suffix is read as JSON, then as YAML.  Text that
    does not decode or parse raises ValueError with a one-line message.
    """
    import yaml

    lower = str(path).lower()
    try:
        with open(path) as fh:
            text = fh.read()
        if lower.endswith(".json"):
            return json.loads(text)
        if lower.endswith((".yaml", ".yml")):
            return yaml.safe_load(text)
        try:
            return json.loads(text)
        except ValueError:
            return yaml.safe_load(text)
    except (ValueError, yaml.YAMLError) as exc:
        raise ValueError("cannot read %s: %s"
                         % (path, " ".join(str(exc).split()))) from None
