"""The PFS client interface: an NFS-style front-end.

"We use NFS as the external PFS interface.  We have constructed a full NFS
client interface class, which is a derived class from the abstract client
interface class.  The NFS class spawns a number of threads that wait for
incoming mount and NFS requests.  Whenever a request is received, the call
is dispatched to one (or more) calls in the abstract client interface.  Each
thread in the NFS component acts as a representative of a client while the
request is in progress."

This module provides:

* :class:`NfsClientInterface` — the derived client interface: the NFSv2-ish
  procedure set (GETATTR, LOOKUP, READ, WRITE, CREATE, REMOVE, RENAME,
  MKDIR, RMDIR, READDIR, SYMLINK, READLINK, STATFS) expressed over opaque
  file handles, implemented in terms of the abstract client interface's
  machinery.
* :class:`NfsServer` — the worker-thread pool dispatching requests.
* :class:`NfsLoopbackClient` — an in-process stand-in for the SunRPC/UDP
  transport, so examples and tests can exercise the full request path
  without a network (the documented substitution for real NFS).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from repro.core.client import AbstractClientInterface
from repro.core.filesystem import FileSystem
from repro.core.filetypes import BaseFile, DirectoryFile, SymlinkFile
from repro.core.inode import FileKind
from repro.core.scheduler import Event, Scheduler
from repro.core.sync import Channel
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    ReproError,
    StaleHandle,
    StorageError,
)

__all__ = [
    "NfsStatus",
    "NfsProcedure",
    "NfsFileHandle",
    "NfsRequest",
    "NfsReply",
    "NfsClientInterface",
    "NfsServer",
    "NfsLoopbackClient",
    "NfsError",
]


class NfsStatus(enum.IntEnum):
    """NFSv2 status codes (the subset the framework can produce)."""

    OK = 0
    ERR_PERM = 1
    ERR_NOENT = 2
    ERR_IO = 5
    ERR_EXIST = 17
    ERR_NOTDIR = 20
    ERR_ISDIR = 21
    ERR_INVAL = 22
    ERR_NOSPC = 28
    ERR_NOTEMPTY = 66
    ERR_STALE = 70


#: mapping from framework errno names to NFS status codes.
_ERRNO_TO_STATUS = {
    "ENOENT": NfsStatus.ERR_NOENT,
    "EEXIST": NfsStatus.ERR_EXIST,
    "ENOTDIR": NfsStatus.ERR_NOTDIR,
    "EISDIR": NfsStatus.ERR_ISDIR,
    "ENOTEMPTY": NfsStatus.ERR_NOTEMPTY,
    "EINVAL": NfsStatus.ERR_INVAL,
    "ENOSPC": NfsStatus.ERR_NOSPC,
    "ESTALE": NfsStatus.ERR_STALE,
    "EPERM": NfsStatus.ERR_PERM,
    "EIO": NfsStatus.ERR_IO,
}


def status_for_error(error: FileSystemError) -> NfsStatus:
    return _ERRNO_TO_STATUS.get(getattr(error, "errno_name", "EIO"), NfsStatus.ERR_IO)


class NfsProcedure(enum.Enum):
    NULL = "null"
    GETATTR = "getattr"
    SETATTR = "setattr"
    LOOKUP = "lookup"
    READLINK = "readlink"
    READ = "read"
    WRITE = "write"
    CREATE = "create"
    REMOVE = "remove"
    RENAME = "rename"
    SYMLINK = "symlink"
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    READDIR = "readdir"
    STATFS = "statfs"


@dataclass(frozen=True)
class NfsFileHandle:
    """An opaque, persistent reference to a file (inode number + generation)."""

    inode_number: int
    generation: int

    def __str__(self) -> str:
        return f"fh:{self.inode_number}.{self.generation}"


@dataclass
class NfsRequest:
    procedure: NfsProcedure
    args: Dict[str, Any] = field(default_factory=dict)
    reply_event: Optional[Event] = None


@dataclass
class NfsReply:
    status: NfsStatus
    result: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is NfsStatus.OK


class NfsError(FileSystemError):
    """Raised by the loopback client when a call returns a non-OK status."""

    def __init__(self, procedure: NfsProcedure, status: NfsStatus):
        super().__init__(f"{procedure.value} failed with {status.name}")
        self.procedure = procedure
        self.status = status


class NfsClientInterface(AbstractClientInterface):
    """The NFS procedures, expressed over file handles.

    A derived class of the abstract client interface (as in the paper);
    every procedure below is a generator run by an NFS worker thread.
    """

    def __init__(self, fs: FileSystem):
        super().__init__(fs, auto_materialize=False)

    # -- handles -----------------------------------------------------------------

    def handle_for(self, file: BaseFile) -> NfsFileHandle:
        return NfsFileHandle(file.inode.number, file.inode.generation)

    def root_handle(self) -> NfsFileHandle:
        return self.handle_for(self.fs.root_directory())

    def file_for_handle(self, handle: NfsFileHandle) -> Generator[Any, Any, BaseFile]:
        try:
            file = yield from self.fs.file_table.load(handle.inode_number)
        except StorageError as error:
            # The inode is gone (file removed and reaped): the NFSv2 answer
            # is a stale-handle error, not a dead server thread.
            raise StaleHandle(f"stale file handle {handle}: {error}") from error
        if file.inode.generation != handle.generation:
            raise StaleHandle(f"stale file handle {handle}")
        return file

    def _directory_for_handle(
        self, handle: NfsFileHandle
    ) -> Generator[Any, Any, DirectoryFile]:
        file = yield from self.file_for_handle(handle)
        if not isinstance(file, DirectoryFile):
            raise NotADirectory(f"{handle} is not a directory")
        return file

    # -- attribute procedures ------------------------------------------------------

    def nfs_getattr(self, handle: NfsFileHandle) -> Generator[Any, Any, dict]:
        file = yield from self.file_for_handle(handle)
        return {"attr": file.inode.stat()}

    def nfs_setattr(
        self, handle: NfsFileHandle, size: Optional[int] = None, mode: Optional[int] = None
    ) -> Generator[Any, Any, dict]:
        file = yield from self.file_for_handle(handle)
        if size is not None:
            yield from file.truncate(size)
        if mode is not None:
            file.inode.mode = mode
            self.fs.note_inode_dirty(file.inode)
        return {"attr": file.inode.stat()}

    # -- name space procedures --------------------------------------------------------

    def nfs_lookup(self, dir_handle: NfsFileHandle, name: str) -> Generator[Any, Any, dict]:
        directory = yield from self._directory_for_handle(dir_handle)
        inode_number = yield from directory.lookup(name)
        if inode_number is None:
            raise FileNotFound(f"no entry {name!r} in {dir_handle}")
        file = yield from self.fs.file_table.load(inode_number)
        return {"handle": self.handle_for(file), "attr": file.inode.stat()}

    def nfs_create(self, dir_handle: NfsFileHandle, name: str) -> Generator[Any, Any, dict]:
        directory = yield from self._directory_for_handle(dir_handle)
        existing = yield from directory.lookup(name)
        if existing is not None:
            raise FileExists(f"{name!r} already exists")
        file = yield from self._create_in(directory, name, FileKind.REGULAR)
        return {"handle": self.handle_for(file), "attr": file.inode.stat()}

    def nfs_mkdir(self, dir_handle: NfsFileHandle, name: str) -> Generator[Any, Any, dict]:
        directory = yield from self._directory_for_handle(dir_handle)
        existing = yield from directory.lookup(name)
        if existing is not None:
            raise FileExists(f"{name!r} already exists")
        child = yield from self._create_in(directory, name, FileKind.DIRECTORY)
        return {"handle": self.handle_for(child), "attr": child.inode.stat()}

    def nfs_symlink(
        self, dir_handle: NfsFileHandle, name: str, target: str
    ) -> Generator[Any, Any, dict]:
        directory = yield from self._directory_for_handle(dir_handle)
        existing = yield from directory.lookup(name)
        if existing is not None:
            raise FileExists(f"{name!r} already exists")
        link = yield from self._create_in(directory, name, FileKind.SYMLINK)
        assert isinstance(link, SymlinkFile)
        link.set_target(target)
        return {"handle": self.handle_for(link), "attr": link.inode.stat()}

    def nfs_readlink(self, handle: NfsFileHandle) -> Generator[Any, Any, dict]:
        file = yield from self.file_for_handle(handle)
        if not isinstance(file, SymlinkFile):
            raise InvalidArgument(f"{handle} is not a symbolic link")
        return {"target": file.target}

    def nfs_remove(self, dir_handle: NfsFileHandle, name: str) -> Generator[Any, Any, dict]:
        directory = yield from self._directory_for_handle(dir_handle)
        inode_number = yield from directory.lookup(name)
        if inode_number is None:
            raise FileNotFound(f"no entry {name!r} in {dir_handle}")
        file = yield from self.fs.file_table.load(inode_number)
        if isinstance(file, DirectoryFile):
            raise IsADirectory(f"{name!r} is a directory; use RMDIR")
        yield from directory.remove_entry(name)
        file.inode.nlink = max(file.inode.nlink - 1, 0)
        if file.inode.nlink == 0 and file.open_count == 0:
            yield from self._reap(file)
        return {}

    def nfs_rmdir(self, dir_handle: NfsFileHandle, name: str) -> Generator[Any, Any, dict]:
        directory = yield from self._directory_for_handle(dir_handle)
        inode_number = yield from directory.lookup(name)
        if inode_number is None:
            raise FileNotFound(f"no entry {name!r} in {dir_handle}")
        child = yield from self.fs.file_table.load(inode_number)
        if not isinstance(child, DirectoryFile):
            raise NotADirectory(f"{name!r} is not a directory")
        empty = yield from child.is_empty()
        if not empty:
            raise DirectoryNotEmpty(f"{name!r} is not empty")
        yield from directory.remove_entry(name)
        child.inode.nlink = 0
        yield from self._reap(child)
        return {}

    def nfs_rename(
        self,
        from_dir: NfsFileHandle,
        from_name: str,
        to_dir: NfsFileHandle,
        to_name: str,
    ) -> Generator[Any, Any, dict]:
        source_dir = yield from self._directory_for_handle(from_dir)
        target_dir = yield from self._directory_for_handle(to_dir)
        inode_number = yield from source_dir.lookup(from_name)
        if inode_number is None:
            raise FileNotFound(f"no entry {from_name!r} in {from_dir}")
        existing = yield from target_dir.lookup(to_name)
        if existing is not None and existing != inode_number:
            victim = yield from self.fs.file_table.load(existing)
            if isinstance(victim, DirectoryFile):
                empty = yield from victim.is_empty()
                if not empty:
                    raise DirectoryNotEmpty(f"{to_name!r} is not empty")
            victim.inode.nlink = max(victim.inode.nlink - 1, 0)
            yield from target_dir.remove_entry(to_name)
            if victim.inode.nlink == 0 and victim.open_count == 0:
                yield from self._reap(victim)
        yield from target_dir.add_entry(to_name, inode_number)
        yield from source_dir.remove_entry(from_name)
        return {}

    def nfs_readdir(self, dir_handle: NfsFileHandle) -> Generator[Any, Any, dict]:
        directory = yield from self._directory_for_handle(dir_handle)
        entries = yield from directory.list_entries()
        return {"entries": dict(sorted(entries.items()))}

    # -- data procedures -----------------------------------------------------------------

    def nfs_read(
        self, handle: NfsFileHandle, offset: int, count: int
    ) -> Generator[Any, Any, dict]:
        file = yield from self.file_for_handle(handle)
        if isinstance(file, DirectoryFile):
            raise IsADirectory("READ on a directory")
        data = yield from file.read(offset, count)
        self.stats.bytes_read += len(data)
        return {"data": data, "attr": file.inode.stat(), "eof": offset + len(data) >= file.size}

    def nfs_write(
        self, handle: NfsFileHandle, offset: int, data: bytes
    ) -> Generator[Any, Any, dict]:
        file = yield from self.file_for_handle(handle)
        if isinstance(file, DirectoryFile):
            raise IsADirectory("WRITE on a directory")
        written = yield from file.write(offset, data)
        self.stats.bytes_written += written
        return {"count": written, "attr": file.inode.stat()}

    def nfs_statfs(self) -> Generator[Any, Any, dict]:
        layout = self.fs.layout
        return {
            "block_size": self.fs.block_size,
            "total_blocks": layout.volume.total_blocks,
            "free_blocks": layout.free_blocks,
        }
        yield  # pragma: no cover - statfs needs no blocking operations


class NfsServer:
    """The worker-thread pool serving NFS requests."""

    def __init__(self, fs: FileSystem, num_threads: int = 4, name: str = "nfsd"):
        if num_threads < 1:
            raise InvalidArgument("the NFS server needs at least one worker thread")
        self.fs = fs
        self.scheduler: Scheduler = fs.scheduler
        self.interface = NfsClientInterface(fs)
        self.name = name
        self._requests: Channel = Channel(self.scheduler, name=f"{name}-requests")
        self.workers = [
            self.scheduler.spawn(self._worker, index, name=f"{name}-{index}", daemon=True)
            for index in range(num_threads)
        ]
        self.requests_served = 0
        self.per_procedure: Dict[str, int] = {}

    # -- the MOUNT protocol -----------------------------------------------------------

    def mount_root(self) -> NfsFileHandle:
        """The MOUNT call: hand out the root file handle."""
        return self.interface.root_handle()

    # -- request submission ---------------------------------------------------------------

    def submit(self, request: NfsRequest) -> None:
        if request.reply_event is None:
            request.reply_event = self.scheduler.new_event("nfs-reply")
        self._requests.put(request)

    # -- workers -------------------------------------------------------------------------------

    def _worker(self, index: int) -> Generator[Any, Any, None]:
        while True:
            request = yield from self._requests.get()
            reply = yield from self._dispatch(request)
            self.requests_served += 1
            self.per_procedure[request.procedure.value] = (
                self.per_procedure.get(request.procedure.value, 0) + 1
            )
            assert request.reply_event is not None
            request.reply_event.signal(reply)

    def _dispatch(self, request: NfsRequest) -> Generator[Any, Any, NfsReply]:
        handlers = {
            NfsProcedure.NULL: None,
            NfsProcedure.GETATTR: self.interface.nfs_getattr,
            NfsProcedure.SETATTR: self.interface.nfs_setattr,
            NfsProcedure.LOOKUP: self.interface.nfs_lookup,
            NfsProcedure.READLINK: self.interface.nfs_readlink,
            NfsProcedure.READ: self.interface.nfs_read,
            NfsProcedure.WRITE: self.interface.nfs_write,
            NfsProcedure.CREATE: self.interface.nfs_create,
            NfsProcedure.REMOVE: self.interface.nfs_remove,
            NfsProcedure.RENAME: self.interface.nfs_rename,
            NfsProcedure.SYMLINK: self.interface.nfs_symlink,
            NfsProcedure.MKDIR: self.interface.nfs_mkdir,
            NfsProcedure.RMDIR: self.interface.nfs_rmdir,
            NfsProcedure.READDIR: self.interface.nfs_readdir,
            NfsProcedure.STATFS: self.interface.nfs_statfs,
        }
        if request.procedure is NfsProcedure.NULL:
            return NfsReply(NfsStatus.OK, {})
        handler = handlers.get(request.procedure)
        if handler is None:
            return NfsReply(NfsStatus.ERR_INVAL, {})
        try:
            result = yield from handler(**request.args)
            return NfsReply(NfsStatus.OK, result)
        except FileSystemError as error:
            return NfsReply(status_for_error(error), {"message": str(error)})
        except ReproError as error:
            # A server must answer every request: internal failures become
            # ERR_IO instead of silently killing the worker thread (which
            # would leave the client waiting for a reply forever).
            return NfsReply(NfsStatus.ERR_IO, {"message": str(error)})


class NfsLoopbackClient:
    """An in-process client: the stand-in for the SunRPC/UDP transport.

    Every call builds an :class:`NfsRequest`, submits it to the server and
    drives the scheduler until the reply arrives — which is exactly what a
    remote client plus the real scheduler's external-event handling would do,
    minus the network.
    """

    def __init__(self, server: NfsServer):
        self.server = server
        self.scheduler = server.scheduler
        self.root = server.mount_root()

    # -- raw call ---------------------------------------------------------------------

    def call(self, procedure: NfsProcedure, **args: Any) -> NfsReply:
        request = NfsRequest(procedure=procedure, args=args)
        request.reply_event = self.scheduler.new_event(f"reply-{procedure.value}")
        self.server.submit(request)
        waiter = self.scheduler.spawn(self._await_reply, request, name=f"rpc-{procedure.value}")
        return self.scheduler.run_until_complete(waiter)

    @staticmethod
    def _await_reply(request: NfsRequest) -> Generator[Any, Any, NfsReply]:
        assert request.reply_event is not None
        reply = yield from request.reply_event.wait()
        return reply

    def _expect_ok(self, procedure: NfsProcedure, reply: NfsReply) -> Dict[str, Any]:
        if not reply.ok:
            raise NfsError(procedure, reply.status)
        return reply.result

    # -- convenience wrappers ------------------------------------------------------------

    def getattr(self, handle: NfsFileHandle) -> dict:
        return self._expect_ok(
            NfsProcedure.GETATTR, self.call(NfsProcedure.GETATTR, handle=handle)
        )["attr"]

    def setattr(self, handle: NfsFileHandle, size: Optional[int] = None) -> dict:
        return self._expect_ok(
            NfsProcedure.SETATTR, self.call(NfsProcedure.SETATTR, handle=handle, size=size)
        )["attr"]

    def lookup(self, dir_handle: NfsFileHandle, name: str) -> NfsFileHandle:
        result = self._expect_ok(
            NfsProcedure.LOOKUP, self.call(NfsProcedure.LOOKUP, dir_handle=dir_handle, name=name)
        )
        return result["handle"]

    def create(self, dir_handle: NfsFileHandle, name: str) -> NfsFileHandle:
        result = self._expect_ok(
            NfsProcedure.CREATE, self.call(NfsProcedure.CREATE, dir_handle=dir_handle, name=name)
        )
        return result["handle"]

    def mkdir(self, dir_handle: NfsFileHandle, name: str) -> NfsFileHandle:
        result = self._expect_ok(
            NfsProcedure.MKDIR, self.call(NfsProcedure.MKDIR, dir_handle=dir_handle, name=name)
        )
        return result["handle"]

    def symlink(self, dir_handle: NfsFileHandle, name: str, target: str) -> NfsFileHandle:
        result = self._expect_ok(
            NfsProcedure.SYMLINK,
            self.call(NfsProcedure.SYMLINK, dir_handle=dir_handle, name=name, target=target),
        )
        return result["handle"]

    def readlink(self, handle: NfsFileHandle) -> str:
        return self._expect_ok(
            NfsProcedure.READLINK, self.call(NfsProcedure.READLINK, handle=handle)
        )["target"]

    def read(self, handle: NfsFileHandle, offset: int, count: int) -> bytes:
        return self._expect_ok(
            NfsProcedure.READ, self.call(NfsProcedure.READ, handle=handle, offset=offset, count=count)
        )["data"]

    def write(self, handle: NfsFileHandle, offset: int, data: bytes) -> int:
        return self._expect_ok(
            NfsProcedure.WRITE, self.call(NfsProcedure.WRITE, handle=handle, offset=offset, data=data)
        )["count"]

    def remove(self, dir_handle: NfsFileHandle, name: str) -> None:
        self._expect_ok(
            NfsProcedure.REMOVE, self.call(NfsProcedure.REMOVE, dir_handle=dir_handle, name=name)
        )

    def rmdir(self, dir_handle: NfsFileHandle, name: str) -> None:
        self._expect_ok(
            NfsProcedure.RMDIR, self.call(NfsProcedure.RMDIR, dir_handle=dir_handle, name=name)
        )

    def rename(
        self, from_dir: NfsFileHandle, from_name: str, to_dir: NfsFileHandle, to_name: str
    ) -> None:
        self._expect_ok(
            NfsProcedure.RENAME,
            self.call(
                NfsProcedure.RENAME,
                from_dir=from_dir,
                from_name=from_name,
                to_dir=to_dir,
                to_name=to_name,
            ),
        )

    def readdir(self, dir_handle: NfsFileHandle) -> Dict[str, int]:
        return self._expect_ok(
            NfsProcedure.READDIR, self.call(NfsProcedure.READDIR, dir_handle=dir_handle)
        )["entries"]

    def statfs(self) -> dict:
        return self._expect_ok(NfsProcedure.STATFS, self.call(NfsProcedure.STATFS))
