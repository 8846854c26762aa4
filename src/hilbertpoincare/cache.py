"""Append-only persistent cache for exact Kloosterman values.

One JSON document per line, keyed by the canonical query residues; corrupt
lines are skipped (and counted) so a torn write can never poison a run.
Values are exact cyclotomic data, so cache hits are bit-identical to fresh
computation.
"""

from __future__ import annotations

import json
import os

from .cyclotomic import CyclotomicInteger
from .errors import HPError

SCHEMA_VERSION = "v1"
FILENAME = f"kloosterman-{SCHEMA_VERSION}.jsonl"


def _key_str(key) -> str:
    def conv(x):
        if isinstance(x, tuple):
            return [conv(t) for t in x]
        return x
    return json.dumps(conv(key), separators=(",", ":"))


class KloostermanStore:
    """The store in `directory`, created when opened.  A directory that
    cannot be created, read or appended to raises HPError."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, FILENAME)
        self._mem: dict[str, CyclotomicInteger] = {}
        self.corrupt_lines = 0
        try:
            os.makedirs(directory, exist_ok=True)
            self._load()
        except OSError as exc:
            raise HPError(f"cache dir {directory}: {exc.strerror}") from None

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    if doc.get("v") != SCHEMA_VERSION:
                        self.corrupt_lines += 1
                        continue
                    self._mem[doc["key"]] = CyclotomicInteger.from_json(doc["val"])
                except Exception:
                    self.corrupt_lines += 1

    def __len__(self):
        return len(self._mem)

    def get(self, key):
        return self._mem.get(_key_str(key))

    def put(self, key, val: CyclotomicInteger):
        ks = _key_str(key)
        if ks in self._mem:
            return
        self._mem[ks] = val
        line = json.dumps({"v": SCHEMA_VERSION, "key": ks, "val": val.to_json()},
                          separators=(",", ":"))
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
        except OSError as exc:
            raise HPError(f"cache dir {self.directory}: {exc.strerror}") from None
