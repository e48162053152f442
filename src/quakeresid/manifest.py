"""Run manifests: a record of exactly what produced each output file.

Data outputs (CSV/JSON/SVG) never contain the timestamp, so a rerun with
the same inputs, flags, and seed is byte-identical; the timestamp lives
only in the manifest sidecar.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

TOOLKIT_VERSION = "0.2.0"


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    inputs: dict                 # path -> sha256 digest
    seed: int | None
    parameters: dict
    version: str = TOOLKIT_VERSION
    timestamp: str = ""

    def key(self) -> dict:
        """Everything that determines the outputs (timestamp excluded)."""
        return {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "seed": self.seed,
            "parameters": dict(sorted(self.parameters.items())),
            "version": self.version,
        }

    def to_json(self) -> str:
        record = self.key()
        record["timestamp"] = self.timestamp
        return json.dumps(record, indent=2, sort_keys=True) + "\n"


def build_manifest(command: str, input_paths, seed=None,
                   parameters=None) -> RunManifest:
    inputs = {str(p): file_digest(str(p)) for p in input_paths}
    return RunManifest(command, inputs, seed, dict(parameters or {}),
                       TOOLKIT_VERSION,
                       datetime.now(timezone.utc).isoformat())
