"""Exact-span write snoop shared by every cached code body.

The instruction, block and trace caches hold *bodies* built from guest
code bytes (decoded instructions, blocks, traces and their markers).
Each registers the exact ``[lo, hi)`` byte spans it was built from,
and a bus write (checked or raw - both funnel through
:meth:`repro.hw.memory.PhysicalMemory.write_raw`) drops exactly the
bodies it overlaps: a store to a data word that only shares a snoop
granule with code leaves that code cached.

The index is also the one place that adds to ``memory.snooped_pages``,
the page-granular filter compiled store fast paths probe before they
skip the broadcast: every page a registered span touches is in it.
"""

from __future__ import annotations

#: log2 of the bucket a write probes (16-byte lines: a data word next
#: to code rarely shares one with it, so most writes find no bucket).
LINE_SHIFT = 4


def _lines(lo, hi):
    return range(lo >> LINE_SHIFT, ((hi - 1) >> LINE_SHIFT) + 1)


class SpanIndex:
    """Cached code bodies by exact byte span, snooping one memory.

    A body is registered as ``key`` of a ``cache``; a write overlapping
    one of its spans unregisters it and calls ``cache.drop(key)``, which
    removes the body and counts the drop on the cache's own
    ``invalidations`` counter.
    """

    def __init__(self, memory):
        self.memory = memory
        #: line -> {(cache, key): spans} for every body on the line.
        self._lines = {}
        #: cache -> {key: spans} (unregistration and wholesale flushes).
        self._bodies = {}
        #: Bumped whenever a body is added or dropped, so a caller may
        #: memoize :meth:`owners` answers while it stays put.
        self.version = 0
        memory.add_write_listener(self.note_write)

    def add(self, cache, key, spans):
        """Snoop the ``(lo, hi)`` byte ``spans`` of ``cache``'s body ``key``."""
        merged = []
        for lo, hi in sorted(spans):
            if merged and lo <= merged[-1][1]:
                lo, hi = merged[-1][0], max(hi, merged.pop()[1])
            merged.append((lo, hi))
        merged = self._bodies.setdefault(cache, {})[key] = tuple(merged)
        self.version += 1
        ticket = (cache, key)
        lines = self._lines
        for lo, hi in merged:
            self.memory.note_snooped_range(lo, hi)
            for line in _lines(lo, hi):
                bucket = lines.get(line)
                if bucket is None:
                    bucket = lines[line] = {}
                bucket[ticket] = merged

    def note_write(self, address, size):
        """Drop every body with a byte in ``[address, address + size)``.

        Wired as the memory's write listener; returns the dropped
        ``(cache, key)`` pairs.
        """
        lines = self._lines
        hits = []
        if not lines:
            return hits
        end = address + size
        # _lines() inlined: this runs on every bus write.
        for line in range(address >> LINE_SHIFT, ((end - 1) >> LINE_SHIFT) + 1):
            bucket = lines.get(line)
            if bucket is not None:
                for ticket, spans in bucket.items():
                    for lo, hi in spans:
                        if lo < end and address < hi:
                            hits.append(ticket)
                            break
        if hits:
            # A body on two touched lines is hit twice; drop it once.
            hits = list(dict.fromkeys(hits))
            for cache, key in hits:
                self._remove(cache, key)
                cache.drop(key)
        return hits

    def owners(self, address):
        """The ``(cache, key)`` of every body with a byte at ``address``."""
        bucket = self._lines.get(address >> LINE_SHIFT)
        if bucket is None:
            return []
        return [
            ticket
            for ticket, spans in bucket.items()
            if any(lo <= address < hi for lo, hi in spans)
        ]

    def discard(self, cache):
        """Unregister every body of ``cache`` (flushed wholesale)."""
        for key in list(self._bodies.get(cache, ())):
            self._remove(cache, key)

    def _remove(self, cache, key):
        self.version += 1
        ticket = (cache, key)
        lines = self._lines
        for lo, hi in self._bodies[cache].pop(key):
            for line in _lines(lo, hi):
                # Two spans of one body may share a line.
                bucket = lines.get(line)
                if bucket is not None:
                    bucket.pop(ticket, None)
                    if not bucket:
                        del lines[line]
