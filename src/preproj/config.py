"""Engine configuration: field moduli and cache location.

`seed` is validated (non-negative) but read by no computation, which
draws no random number: perfbench/run.py passes --seed to every command.

Flags override an optional flat key=value config file; the only
environment hook is PREPROJ_CACHE for the cache directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import FieldSizeError, InputError
from .linalg import _is_prime

# Inner dimension up to which products over F_p must stay exact in int64.
# The largest `verify --suite all --type A4` reaches over all 672 T is 205,
# in theorem1's coresolution_check; the connecting matrices of lemma37 and
# lemma22 stay at 9 and Ext over End(T) at 10.
EXACT_INNER_DIM = 4096


@dataclass(frozen=True)
class Config:
    field_char: int = 32003
    cross_check_char: int = 101
    seed: int = 0
    cache_dir: str = "cache"

    def validate(self) -> "Config":
        for name in ("field_char", "cross_check_char"):
            p = getattr(self, name)
            if not _is_prime(p) or p == 2:
                raise InputError(f"{name} must be an odd prime, got {p}")
            if (p - 1) ** 2 * EXACT_INNER_DIM >= 2**63:
                raise FieldSizeError(
                    f"{name} = {p} is too large for exact int64 arithmetic"
                )
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        return self


def _coerce(name: str, raw: str):
    kind = {f.name: f.type for f in fields(Config)}[name]
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    return raw


def load_config_file(path: str) -> dict:
    """Parse a flat `key = value` file; '#' starts a comment."""
    out = {}
    known = {f.name for f in fields(Config)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key = value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise InputError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def build_config(file_path: str | None = None, overrides: dict | None = None) -> Config:
    values: dict = {}
    if file_path:
        values.update(load_config_file(file_path))
    cache_env = os.environ.get("PREPROJ_CACHE")
    if cache_env:
        values["cache_dir"] = cache_env
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return replace(Config(), **values).validate()
