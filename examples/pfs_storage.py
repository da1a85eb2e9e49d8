#!/usr/bin/env python3
"""PFS as a persistent store: format, populate, crash, remount, verify.

Demonstrates the on-line half of the framework doing real storage work on a
file-backed disk: directories, files, symlinks, renames, deletion, a cache
sync, an unmount (checkpoint) and a remount from the same backing file — the
check that the segmented LFS metadata (IFILE, checkpoint, segment summaries)
really round-trips through the disk.

Run with:  python examples/pfs_storage.py [backing-file] [--full-hardware] [--volumes N]

With ``--full-hardware`` the store is the sun4_280 ten-disk array: disk
``i`` lands in ``<backing>.d<i>`` and the same metadata round-trip is
checked across every per-volume sub-layout.
"""

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

from repro import CacheConfig, LayoutConfig, PegasusFileSystem
from repro.cli import add_stack_flags, stack_config
from repro.units import KB, MB


def populate(pfs: PegasusFileSystem) -> None:
    pfs.makedirs("/home/alice")
    pfs.makedirs("/home/bob")
    pfs.write_file("/home/alice/notes.txt", b"remember to flush the cache\n" * 50)
    pfs.write_file("/home/bob/data.bin", bytes(range(256)) * 200)
    pfs.symlink("/home/alice/notes.txt", "/home/bob/alice-notes")
    pfs.write_file("/home/bob/scratch.tmp", b"short lived" * 100)
    pfs.delete("/home/bob/scratch.tmp")          # dies before it ever hits the disk
    pfs.rename("/home/bob/data.bin", "/home/bob/dataset.bin")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("backing", nargs="?", default=None)
    add_stack_flags(parser)
    args = parser.parse_args()
    explicit_backing = args.backing is not None
    backing = Path(args.backing) if explicit_backing else Path(tempfile.mktemp(suffix=".pfs"))
    spec = replace(
        stack_config(args),
        cache=CacheConfig(size_bytes=2 * MB),
        layout=LayoutConfig(segment_size=128 * KB),
    )
    options = dict(
        spec=spec,
        backing=backing,
        size_bytes=80 * MB if args.full_hardware else 32 * MB,
    )

    print(f"formatting a Pegasus file system on {backing} ...")
    pfs = PegasusFileSystem(**options)
    pfs.format()
    populate(pfs)
    print("populated:", pfs.listdir("/home/alice"), pfs.listdir("/home/bob"))
    print("statistics after population:", pfs.statistics()["cache"])
    pfs.unmount()
    pfs.close_backing()

    print("\nremounting from the backing file ...")
    remounted = PegasusFileSystem(**options)
    remounted.mount()
    notes = remounted.read_file("/home/alice/notes.txt")
    dataset = remounted.read_file("/home/bob/dataset.bin")
    via_link = remounted.read_file("/home/bob/alice-notes")
    print("alice/notes.txt bytes :", len(notes))
    print("bob/dataset.bin bytes :", len(dataset))
    print("symlink resolves      :", via_link == notes)
    print("scratch.tmp survived? :", remounted.exists("/home/bob/scratch.tmp"))
    remounted.unmount()
    remounted.close_backing()

    if not explicit_backing:
        backing.unlink(missing_ok=True)
        for piece in backing.parent.glob(backing.name + ".d*"):
            piece.unlink(missing_ok=True)
    print("done.")


if __name__ == "__main__":
    main()
