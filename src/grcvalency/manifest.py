"""Run manifests: what ran, over which bytes, with which settings."""

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .frames import FORMAT_VERSION
from .output import write_atomic


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def build_manifest(command: str, config: dict, input_paths) -> dict:
    """A run's command, settings, sha256 per input path, versions and UTC timestamp."""
    return {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in input_paths},
        "tool_version": __version__,
        "format_version": FORMAT_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, destination) -> None:
    """Write ``manifest`` as JSON with its keys sorted at every level."""
    text = json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True)
    write_atomic(destination, [text + "\n"])
