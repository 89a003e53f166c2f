"""Saving and loading fitted L2R models.

A serving process should not have to re-run the offline pipeline (region
clustering, preference learning, transfer, path materialization) on every
start.  :func:`save_model` persists a fitted
:class:`~repro.core.l2r.LearnToRoute` — the road network, the region graph
with learned and transferred preferences, and the materialized B-edge paths —
into one gzip-compressed pickle with a format header; :func:`load_model`
restores it and verifies the header.  Format 4 carries the road network as
a handful of numpy buffers (vertex ids and coordinates, and the edges as
insertion-ordered columns) rather than pickled ``Vertex`` and ``Edge``
objects.  A round-tripped model answers every query identically to the
in-memory original (the state is carried verbatim; routing is
deterministic).  A file of another format version fails with
:class:`ModelPersistenceError`, never a bare unpickling error — format 2
pickled a seven-field ``L2RConfig`` (one field an ``ApplyConfig``), format 3
the road network's ``Vertex`` and ``Edge`` objects — and so does a file that
names a class or module this library no longer has, or carries state its
classes no longer take, or whose gzip body or pickle bytes are corrupt.
"""

from __future__ import annotations

import gzip
import os
import pickle
import tempfile
import zlib
from pathlib import Path as FilePath
from typing import TYPE_CHECKING

from ..exceptions import ReproError
from .durability.journal import _fsync_dir

if TYPE_CHECKING:  # pragma: no cover
    from ..core.l2r import LearnToRoute

MODEL_FORMAT = "repro-l2r-model"
MODEL_FORMAT_VERSION = 4


class ModelPersistenceError(ReproError):
    """A model file could not be written, read, or understood."""


def save_model(pipeline: "LearnToRoute", path: str | FilePath) -> FilePath:
    """Persist a fitted pipeline to ``path``; returns the written path."""
    from .. import __version__
    from ..core.l2r import LearnToRoute

    if not isinstance(pipeline, LearnToRoute):
        raise ModelPersistenceError(
            f"save_model() expects a LearnToRoute pipeline, got {type(pipeline).__name__}"
        )
    if not pipeline.is_fitted:
        raise ModelPersistenceError("refusing to save an unfitted LearnToRoute pipeline")

    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "library_version": __version__,
        "pipeline": pipeline,
    }
    destination = FilePath(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename: a crash or full disk mid-write must not clobber a
    # previously good model at the destination with a truncated file.  The
    # scratch name is unique per call so concurrent saves to the same
    # destination cannot interleave their streams.
    handle_fd, scratch_name = tempfile.mkstemp(
        dir=destination.parent, prefix=destination.name + ".", suffix=".tmp"
    )
    scratch = FilePath(scratch_name)
    try:
        with os.fdopen(handle_fd, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            # fsync *before* the rename: os.replace is atomic in the
            # namespace but says nothing about the data — without this, a
            # power loss after the rename can still surface a truncated
            # "committed" model under the destination name.
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(scratch, destination)
        _fsync_dir(destination.parent)
    except (OSError, pickle.PicklingError, TypeError, AttributeError) as exc:
        # TypeError/AttributeError are how pickle reports unpicklable state.
        raise ModelPersistenceError(f"could not write model to {destination}: {exc}") from exc
    finally:
        scratch.unlink(missing_ok=True)  # no-op once os.replace succeeded
    return destination


def load_model(path: str | FilePath) -> "LearnToRoute":
    """Restore a pipeline previously written by :func:`save_model`.

    .. warning::
       Model files are pickles: loading executes code embedded in the file.
       Only load models you saved yourself or obtained from a trusted source
       — the format header is checked *after* unpickling and cannot protect
       against a malicious file.
    """
    from ..core.l2r import LearnToRoute

    source = FilePath(path)
    try:
        with gzip.open(source, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise ModelPersistenceError(f"model file {source} does not exist") from None
    except (OSError, zlib.error, pickle.UnpicklingError, EOFError, ValueError) as exc:
        # ValueError (UnicodeDecodeError among them) is how the unpickler
        # reports many corrupt byte strings; zlib.error a corrupt gzip body.
        raise ModelPersistenceError(f"could not read model from {source}: {exc}") from exc
    except (AttributeError, ImportError, KeyError, TypeError) as exc:
        # The pickle names a class or module that is gone, or carries state
        # today's classes do not take (a format-3 network): an older format.
        raise ModelPersistenceError(
            f"{source} was written by an incompatible library version ({exc}); "
            f"this library reads model format version {MODEL_FORMAT_VERSION}"
        ) from exc

    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelPersistenceError(f"{source} is not a saved L2R model")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelPersistenceError(
            f"{source} uses model format version {version!r}; "
            f"this library reads version {MODEL_FORMAT_VERSION}"
        )
    pipeline = payload.get("pipeline")
    if not isinstance(pipeline, LearnToRoute):
        raise ModelPersistenceError(f"{source} does not contain a LearnToRoute pipeline")
    return pipeline
