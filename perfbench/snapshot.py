"""Seed-output snapshot: the CLI output bytes of every workload at the
default seed and full size, as produced by the commit that added the
benchmark.

Outputs up to TEXT_LIMIT bytes are stored verbatim, larger ones by SHA-256
and length.  `bytes_changed` is reported for information only: a change
that states and justifies different output digits is not a failure.

Regenerate with `python3 perfbench/snapshot.py` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "snapshot" / "seed7.json"
TEXT_LIMIT = 64 * 1024


def entry(text: str) -> dict:
    data = text.encode()
    out = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if len(data) <= TEXT_LIMIT:
        out["text"] = text
    return out


def load() -> dict[str, dict]:
    return json.loads(PATH.read_text())


def bytes_changed(snapshot: dict[str, dict], outputs: dict[str, str]) -> int:
    """Bytes that differ from the snapshot, over every output of either.

    Verbatim entries count differing positions plus the length difference;
    an output known only by digest counts whole when the digest differs.
    """
    changed = 0
    for label in sorted(set(snapshot) | set(outputs)):
        old, new = snapshot.get(label), outputs.get(label)
        if old is None or new is None:
            changed += (old or {}).get("bytes", 0) + len((new or "").encode())
            continue
        data = new.encode()
        if hashlib.sha256(data).hexdigest() == old["sha256"]:
            continue
        if "text" not in old:
            changed += max(len(data), old["bytes"])
            continue
        ref = old["text"].encode()
        changed += sum(a != b for a, b in zip(ref, data)) + abs(len(ref) - len(data))
    return changed


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run

    outputs: dict[str, str] = {}
    for name in run.workload_names():
        rep = run.single_rep(name, run.DEFAULT_SEED)
        if rep.failed:
            sys.stderr.write(f"{name}: checks failed: {rep.failures}\n")
            return 1
        outputs.update({f"{name}/{label}": text for label, text in rep.outputs.items()})
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps({k: entry(v) for k, v in sorted(outputs.items())},
                               indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
