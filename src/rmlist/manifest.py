"""Run manifests: enough metadata to re-run a CLI command and check its outputs.

A manifest records the command name, its full parameter set, the seed, the
artifact version, start/end timestamps, and a sha256 digest per output file.
Replaying a manifest re-runs the command and must reproduce byte-identical
outputs (timestamps live only in the manifest, never in outputs).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import InputError


@dataclass
class RunManifest:
    command: str
    params: dict
    seed: int | None
    version: str
    started_utc: str
    finished_utc: str = ""
    outputs: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "seed": self.seed,
                "version": self.version,
                "started_utc": self.started_utc,
                "finished_utc": self.finished_utc,
                "outputs": self.outputs,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(path: Path | str, manifest: RunManifest) -> None:
    Path(path).write_text(manifest.to_json())


def load_manifest(path: Path | str) -> RunManifest:
    """The manifest at ``path``, or ``InputError`` naming what it lacks."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"manifest {path} is not a JSON object")
    for key, kind in (("command", str), ("params", dict), ("outputs", dict)):
        if not isinstance(data.get(key), kind):
            raise InputError(f"manifest {path} has no {key} {kind.__name__}")
    return RunManifest(
        command=data["command"],
        params=data["params"],
        seed=data.get("seed"),
        version=data.get("version", ""),
        started_utc=data.get("started_utc", ""),
        finished_utc=data.get("finished_utc", ""),
        outputs=data["outputs"],
    )
