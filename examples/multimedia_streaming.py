#!/usr/bin/env python3
"""Per-file-type policy: a continuous-media file with its own cache budget.

Section 2's "Files" component motivates per-type policy with multimedia
files: "if ordinary cache policies are used on a multi-media file the whole
cache would fill up with this data".  This example stores a large media file
and a set of small files on one PFS instance, streams the media file
sequentially, and shows that the multimedia file's cache budget keeps it
from evicting the small files — while an ordinary regular file of the same
size pollutes the cache.

Run with:  python examples/multimedia_streaming.py [--full-hardware] [--volumes N]
"""

import argparse
from dataclasses import replace

from repro import CacheConfig, LayoutConfig, PegasusFileSystem
from repro.cli import add_stack_flags, stack_config
from repro.units import KB, MB


def build_fs(args) -> PegasusFileSystem:
    spec = replace(
        stack_config(args),
        # 256 cache blocks, one cache however the array is carved.
        cache=CacheConfig(size_bytes=1 * MB),
        layout=LayoutConfig(segment_size=128 * KB),
    )
    pfs = PegasusFileSystem(spec=spec, size_bytes=64 * MB)
    pfs.format()
    pfs.mkdir("/small")
    for i in range(32):
        pfs.write_file(f"/small/file{i:02d}.txt", b"s" * 4 * KB)
    pfs.sync()
    # Warm the cache with the small files.
    for i in range(32):
        pfs.read_file(f"/small/file{i:02d}.txt")
    return pfs


def resident_small_blocks(pfs: PegasusFileSystem) -> int:
    count = 0
    for file in pfs.fs.file_table.loaded_files:
        if file.inode.kind.name == "REGULAR" and file.size == 4 * KB:
            count += len(pfs.cache.cached_blocks_of(file.file_id))
    return count


def stream(pfs: PegasusFileSystem, path: str, handle: int, size: int) -> None:
    for offset in range(0, size, 64 * KB):
        pfs.read(handle, offset, 64 * KB)


def main() -> None:
    parser = add_stack_flags(argparse.ArgumentParser(description=__doc__))
    args = parser.parse_args()
    # The ten-disk array pushes every block through per-volume LFS logs and
    # real byte-moving drivers; a smaller media file keeps the demo snappy
    # while still overflowing each cache shard many times over.
    media_size = 2 * MB if args.full_hardware else 8 * MB

    print("streaming through an ordinary regular file ...")
    pfs = build_fs(args)
    before = resident_small_blocks(pfs)
    pfs.write_file("/movie-regular.bin", b"m" * media_size)
    pfs.sync()
    handle = pfs.open("/movie-regular.bin")
    stream(pfs, "/movie-regular.bin", handle, media_size)
    pfs.close(handle)
    after_regular = resident_small_blocks(pfs)
    print(f"  small-file blocks resident: {before} -> {after_regular}")

    print("streaming through a multimedia file (budgeted cache use) ...")
    pfs = build_fs(args)
    before = resident_small_blocks(pfs)
    handle = pfs.create_multimedia("/movie.mm")
    pfs.write(handle, 0, b"m" * media_size)
    pfs.sync()
    stream(pfs, "/movie.mm", handle, media_size)
    pfs.close(handle)
    after_multimedia = resident_small_blocks(pfs)
    print(f"  small-file blocks resident: {before} -> {after_multimedia}")

    print()
    if after_multimedia >= after_regular:
        print(f"cache pollution avoided: {after_multimedia} >= {after_regular} "
              f"(multimedia file kept its footprint bounded)")
    else:
        print(f"small-file residency: {after_multimedia} vs {after_regular} — on a "
              f"sharded array the effect is per shard; compare within one volume")


if __name__ == "__main__":
    main()
