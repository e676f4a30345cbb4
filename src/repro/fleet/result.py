"""The typed fleet run result.

:meth:`Fleet.run` returns a :class:`FleetResult`: a read-only mapping
over the deterministic result data (so existing ``result["health"]``
call sites keep working) with typed accessors for the fields callers
actually branch on - per-shard health, the quarantine list, latency
percentiles, and the store checkpoint path.

``to_dict()`` is the JSON surface; its layout is versioned by the
top-level ``"schema"`` key (currently :data:`SCHEMA_VERSION`), which is
what ``repro.tools.fleet --json`` prints and what the CI smoke diffs
byte-for-byte between runs.
"""

from __future__ import annotations

import json

#: Version of the result-dict layout (``result["schema"]``).
#: 1 was the pre-1.4 untyped dict; 2 adds ``schema``/``shards``/
#: ``link``/``store`` sections and the per-shard health rollup; 3 echoes
#: only the simulated fleet under ``fleet`` (no host worker settings).
SCHEMA_VERSION = 3


class FleetResult:
    """The outcome of one fleet attestation run (read-only mapping)."""

    def __init__(self, data):
        data = dict(data)
        data.setdefault("schema", SCHEMA_VERSION)
        self._data = data

    # -- mapping surface ----------------------------------------------------

    def __getitem__(self, key):
        return self._data[key]

    def __contains__(self, key):
        return key in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def keys(self):
        return self._data.keys()

    def get(self, key, default=None):
        return self._data.get(key, default)

    def to_dict(self):
        """Plain nested-dict form (JSON-serialisable, deterministic)."""

        def plain(value):
            if hasattr(value, "to_dict"):
                return plain(value.to_dict())
            if isinstance(value, dict):
                return {key: plain(item) for key, item in value.items()}
            if isinstance(value, (list, tuple)):
                return [plain(item) for item in value]
            return value

        return plain(self._data)

    def to_json(self, indent=2):
        """The canonical JSON text (sorted keys - byte-diffable)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- typed accessors ----------------------------------------------------

    @property
    def schema(self):
        """Result layout version."""
        return self._data["schema"]

    @property
    def health(self):
        """The fleet-wide health rollup (mapping)."""
        return self._data["health"]

    @property
    def shard_health(self):
        """Per-shard health report list."""
        return self._data["health"]["shards"]

    @property
    def quarantined(self):
        """``[{"device": id, "reason": ...}, ...]``, sorted by device."""
        return self._data["health"]["quarantined_devices"]

    @property
    def latency_us(self):
        """Latency percentile summary, or ``None`` if nothing attested."""
        return self._data["health"]["latency_us"]

    @property
    def checkpoint_path(self):
        """Filesystem path of the store checkpoint, or ``None``."""
        return self._data["store"]["path"]

    @property
    def reports_per_sec(self):
        """Attested reports per simulated second (host-independent)."""
        return self._data["reports_per_sec"]

    @property
    def healthy(self):
        """Whether every non-quarantined device attested."""
        health = self._data["health"]
        return health["pending"] == 0 and (
            health["attested"] + health["quarantined"] == health["total"]
        )

    def __repr__(self):
        health = self._data["health"]
        return (
            "FleetResult(%d/%d attested, %d quarantined, "
            "%.1f reports per simulated second)"
        ) % (
            health["attested"],
            health["total"],
            health["quarantined"],
            self._data["reports_per_sec"],
        )
