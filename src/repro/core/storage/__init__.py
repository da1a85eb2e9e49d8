"""Storage layouts: how file systems are arranged on raw disks.

"The storage-layout component is responsible for defining a file-system
layout on a raw disk.  This component knows the actual location(s) of
file-system meta-data, and is able to store and retrieve information from
one or more disks."  The base class is only an interface; the segmented LFS
(:mod:`repro.core.storage.lfs`), the layout of the paper's experiments, is
the one built in.  Another layout drops into the same slot as a class
registered under the "layout" kind: derived from the LFS, it overrides only
what it changes.
"""

from repro.core.storage.layout import StorageLayout
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume, Volume
from repro.core.storage.cleaner import CostBenefitCleaner, GreedyCleaner, SegmentCleaner

__all__ = [
    "StorageLayout",
    "LogStructuredLayout",
    "Volume",
    "LocalVolume",
    "SegmentCleaner",
    "GreedyCleaner",
    "CostBenefitCleaner",
]
