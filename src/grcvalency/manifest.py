"""Run manifests: what ran, over which bytes, with which settings."""

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .lexicon import FORMAT_VERSION, write_atomic


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict  # path -> sha256 hex digest
    tool_version: str
    format_version: str
    timestamp: str


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def build_manifest(command: str, config: dict, input_paths) -> RunManifest:
    inputs = {str(p): _sha256(Path(p)) for p in sorted(str(p) for p in input_paths)}
    return RunManifest(
        command=command,
        config={k: config[k] for k in sorted(config)},
        inputs=inputs,
        tool_version=__version__,
        format_version=FORMAT_VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def write_manifest(manifest: RunManifest, destination) -> Path:
    destination = Path(destination)
    text = json.dumps(asdict(manifest), ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    write_atomic(destination, text.encode("utf-8"))
    return destination
