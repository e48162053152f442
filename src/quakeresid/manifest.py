"""Run manifests: a record of exactly what produced each output file.

Data outputs (CSV/JSON/SVG) never contain the timestamp, so a rerun with
the same inputs, flags, and seed is byte-identical; the timestamp lives
only in the manifest sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

TOOLKIT_VERSION = "0.6.0"


@dataclass(frozen=True)
class RunManifest:
    command: str
    inputs: dict                 # path -> sha256 digest of the bytes parsed
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


def build_manifest(command: str, inputs: dict, seed=None,
                   parameters=None) -> RunManifest:
    """Manifest of a run; inputs maps each input path to the sha256 digest
    of the bytes the command parsed from it."""
    inputs = {str(p): digest for p, digest in inputs.items()}
    return RunManifest(command, inputs, seed, dict(parameters or {}),
                       TOOLKIT_VERSION,
                       datetime.now(timezone.utc).isoformat())
