"""The frame codec host functions every bundled plugin binds.

A plugin that adds frames declares their classes in its
:class:`~repro.core.plugin.HostBinding`; its ``*_parse`` and ``*_write``
helpers are these two functions under the plugin's own helper names and
ids.
"""

from __future__ import annotations

from repro.core.api import ApiViolation
from repro.errors import FrameEncodingError


def parse_frame(runtime, vm, buf_handle, *_):
    """Body of ``parse_frame(buf, frame_type)``: parse one of the plugin's
    declared frame classes and hand the frame back as the operation's
    result (:meth:`~repro.core.plugin.PluginRuntime.set_result`).  A
    malformed frame is a FRAME_ENCODING_ERROR, as for a core frame."""
    args = runtime.context.raw_args
    frame_type = args[1]
    cls = runtime.plugin.host.frames.get(frame_type)
    if cls is None:
        raise ApiViolation(f"plugin declares no frame type {frame_type!r}")
    try:
        runtime.set_result(cls.parse(args[buf_handle], frame_type))
    except ValueError as exc:  # e.g. an address that is not UTF-8
        raise FrameEncodingError(f"frame 0x{frame_type:x}: {exc}") from exc
    return 0


def write_frame(runtime, vm, frame_handle, buf_handle, *_):
    """Body of ``write_frame(frame, buf)``: serialize the frame."""
    args = runtime.context.raw_args
    args[frame_handle].serialize(args[buf_handle])
    return 0
