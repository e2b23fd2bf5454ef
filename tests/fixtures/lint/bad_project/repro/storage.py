"""Planted ``slab-lifecycle`` violations: handles with no owner."""

from __future__ import annotations

import mmap

from repro.graph.slab import SlabReader


def leak_mapping(fileno: int) -> bytes:
    mapped = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)  # leaked
    return bytes(mapped[:16])


def leak_reader(directory: str) -> int:
    reader = SlabReader(directory)  # leaked
    return reader.node_count


class ReaderHolder:
    """Keeps a reader forever: the class defines no ``close()``."""

    def __init__(self, directory: str) -> None:
        self.reader = SlabReader(directory)


def context_managed(fileno: int) -> bytes:
    with mmap.mmap(fileno, 0, access=mmap.ACCESS_READ) as mapped:
        return bytes(mapped[:16])


def closed_in_scope(directory: str) -> int:
    reader = SlabReader(directory)
    count = int(reader.node_count)
    reader.close()
    return count


def returned_to_caller(fileno: int) -> mmap.mmap:
    return mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)
