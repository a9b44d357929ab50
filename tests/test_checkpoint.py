"""Checkpoint manifest + blob round-trip guarantees."""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from samarl import nets
from samarl.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_into,
    save_checkpoint,
)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    actor = nets.MlpActor(9, 2, rng)
    named = actor.named_parameters()
    save_checkpoint(tmp_path / "ck", named, algo="maddpg", scenario="coop_nav",
                    agents=3, episode=1234)
    manifest, tensors = load_checkpoint(tmp_path / "ck")
    assert manifest.algo == "maddpg"
    assert manifest.scenario == "coop_nav"
    assert manifest.agents == 3
    assert manifest.episode == 1234
    assert len(manifest.entries) == len(named)
    for name, param in named:
        assert tensors[name].tobytes() == param.data.tobytes()
        assert tensors[name].dtype == np.float32


def test_restore_into(tmp_path):
    a = nets.MlpActor(5, 2, np.random.default_rng(1))
    save_checkpoint(tmp_path / "ck", a.named_parameters(), algo="maddpg",
                    scenario="coop_nav", agents=1, episode=0)
    _, tensors = load_checkpoint(tmp_path / "ck")
    b = nets.MlpActor(5, 2, np.random.default_rng(2))
    restore_into(b.named_parameters(), tensors)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_offsets_are_contiguous(tmp_path):
    actor = nets.MlpActor(3, 2, np.random.default_rng(3), hidden_dim=4)
    save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="matd3",
                    scenario="coop_nav", agents=1, episode=7)
    manifest, _ = load_checkpoint(tmp_path / "ck")
    expected = 0
    for name, shape, dtype, offset in manifest.entries:
        assert offset == expected
        expected += 4 * int(np.prod(shape))


def test_shape_mismatch_on_restore(tmp_path):
    a = nets.MlpActor(5, 2, np.random.default_rng(4))
    save_checkpoint(tmp_path / "ck", a.named_parameters(), algo="maddpg",
                    scenario="coop_nav", agents=1, episode=0)
    _, tensors = load_checkpoint(tmp_path / "ck")
    wrong = nets.MlpActor(6, 2, np.random.default_rng(5))
    with pytest.raises(CheckpointError, match="shape"):
        restore_into(wrong.named_parameters(), tensors)


def test_dtype_mismatch_on_restore(tmp_path):
    a = nets.MlpActor(5, 2, np.random.default_rng(4), dtype=np.float64)
    save_checkpoint(tmp_path / "ck", a.named_parameters(), algo="maddpg",
                    scenario="coop_nav", agents=1, episode=0)
    _, tensors = load_checkpoint(tmp_path / "ck")
    narrow = nets.MlpActor(5, 2, np.random.default_rng(5))
    with pytest.raises(ValueError, match="float64.*float32"):
        restore_into(narrow.named_parameters(), tensors)


def test_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        load_checkpoint(tmp_path / "nowhere")


def test_mixed_precision_round_trip_is_bit_exact(tmp_path):
    single = nets.MlpActor(3, 2, np.random.default_rng(6), hidden_dim=4)
    double = nets.MlpActor(3, 2, np.random.default_rng(6), hidden_dim=4,
                           dtype=np.float64)
    named = single.named_parameters("s.") + double.named_parameters("d.")
    save_checkpoint(tmp_path / "ck", named, algo="maddpg", scenario="coop_nav",
                    agents=1, episode=0)
    manifest, tensors = load_checkpoint(tmp_path / "ck")
    expected = 0
    for (name, param), (entry, shape, dtype, offset) in zip(named, manifest.entries):
        assert entry == name and dtype == param.data.dtype.name
        assert offset == expected
        expected += param.data.nbytes
        assert tensors[name].dtype == param.data.dtype
        assert tensors[name].tobytes() == param.data.tobytes()


def test_unsupported_dtype_rejected(tmp_path):
    actor = nets.MlpActor(3, 2, np.random.default_rng(6))
    named = actor.named_parameters() + [("half", np.zeros(2, dtype=np.float16))]
    with pytest.raises(CheckpointError, match="float32 or float64"):
        save_checkpoint(tmp_path / "ck", named, algo="maddpg", scenario="coop_nav",
                        agents=1, episode=0)
    assert not (tmp_path / "ck").exists()  # checked before anything is written

    path = save_checkpoint(tmp_path / "ok", actor.named_parameters(), algo="maddpg",
                           scenario="coop_nav", agents=1, episode=0)
    manifest = path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(" float32 ", " float16 ", 1))
    with pytest.raises(CheckpointError, match="unsupported dtype float16"):
        load_checkpoint(path)


def test_truncated_blob_detected(tmp_path):
    actor = nets.MlpActor(3, 2, np.random.default_rng(7), hidden_dim=4)
    path = save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="maddpg",
                           scenario="coop_nav", agents=1, episode=0)
    blob = path / "params.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="past blob end"):
        load_checkpoint(path)


@pytest.mark.parametrize("previous", [False, True], ids=["empty-target", "over-checkpoint"])
def test_failed_blob_write_leaves_previous_checkpoint_or_none(tmp_path, monkeypatch, previous):
    def save(episode):
        actor = nets.MlpActor(3, 2, np.random.default_rng(episode), hidden_dim=4)
        return save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="maddpg",
                               scenario="coop_nav", agents=1, episode=episode)

    def contents():
        return {f.name: f.read_bytes() for f in (tmp_path / "ck").iterdir()}

    if previous:
        save(1)
        before = contents()
    real_write = Path.write_bytes

    def short_write(path, data):   # half the blob reaches the disk, then the write fails
        real_write(path, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", short_write)
    with pytest.raises(OSError, match="disk full"):
        save(2)
    monkeypatch.undo()
    if previous:
        assert contents() == before
        assert load_checkpoint(tmp_path / "ck")[0].episode == 1
    else:
        assert not (tmp_path / "ck").exists()
    # the next save completes over what the failed one left, and leaves only itself
    assert load_checkpoint(save(3))[0].episode == 3
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


@pytest.mark.parametrize("previous", [False, True], ids=["empty-target", "over-checkpoint"])
def test_files_reach_the_disk_before_the_rename_and_the_rename_after(tmp_path, monkeypatch,
                                                                    previous):
    actor = nets.MlpActor(3, 2, np.random.default_rng(9), hidden_dim=4)

    def save():
        return save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="maddpg",
                               scenario="coop_nav", agents=1, episode=0)

    if previous:
        save()
    events = []   # ("fsync", inode) or ("rename", source name, target name)
    real_fsync, real_rename = os.fsync, Path.rename

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def rename(path, target):
        events.append(("rename", path.name, Path(target).name))
        return real_rename(path, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(Path, "rename", rename)
    path = save()
    monkeypatch.undo()
    # a file keeps its inode through the rename of its directory
    manifest, blob, parent = (p.stat().st_ino for p in
                              (path / "manifest.txt", path / "params.bin", tmp_path))
    renames = [("rename", "ck", ".ck.old")] if previous else []
    assert events == [("fsync", manifest), ("fsync", blob), *renames,
                      ("rename", ".ck.new", "ck"), ("fsync", parent)]


@pytest.mark.parametrize("old, new", [
    ("format-version 2", "format-version 2.0"),
    ("agents 1", "agents one"),
    (" 1x3x4 float32 ", " 1x3.5x4 float32 "),
    (" float32 0\n", " float32 0x10\n"),
    (" float32 0\n", " float32 -8\n"),
], ids=["version", "agents", "shape", "offset", "negative-offset"])
def test_bad_manifest_integer_names_its_line(tmp_path, old, new):
    actor = nets.MlpActor(3, 2, np.random.default_rng(8), hidden_dim=4)
    path = save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="maddpg",
                           scenario="coop_nav", agents=1, episode=0)
    manifest = path / "manifest.txt"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, new, 1))
    lineno = text[:text.index(old) + 1].count("\n") + 1
    with pytest.raises(CheckpointError, match=f"manifest line {lineno}: "):
        load_checkpoint(path)


def test_version_1_checkpoint_is_refused(tmp_path):
    # version 1 stored each bank member as a network of its own
    actor = nets.MlpActor(3, 2, np.random.default_rng(8), hidden_dim=4)
    path = save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="maddpg",
                           scenario="coop_nav", agents=1, episode=0)
    manifest = path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("format-version 2", "format-version 1", 1))
    with pytest.raises(CheckpointError, match="unsupported checkpoint format version 1"):
        load_checkpoint(path)


@pytest.mark.parametrize("line, repeat", [
    ("format-version 2", "format-version 2"),
    ("algo maddpg", "algo matd3"),
    ("scenario coop_nav", "scenario predator_prey"),
    ("agents 1", "agents 3"),
    ("episode 0", "episode 7"),
    ("train.hidden_dim 4", "train.hidden_dim 8"),
], ids=["version", "algo", "scenario", "agents", "episode", "train"])
def test_repeated_header_line_is_refused(tmp_path, line, repeat):
    # no copy of a header line wins over another
    actor = nets.MlpActor(3, 2, np.random.default_rng(8), hidden_dim=4)
    path = save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="maddpg",
                           scenario="coop_nav", agents=1, episode=0,
                           train={"hidden_dim": 4})
    manifest = path / "manifest.txt"
    lines = manifest.read_text().splitlines()
    at = lines.index(line) + 1
    manifest.write_text("\n".join(lines[:at] + [repeat] + lines[at:]) + "\n")
    key = re.escape(line.split()[0])
    with pytest.raises(CheckpointError, match=f"manifest line {at + 1} repeats '{key}'"):
        load_checkpoint(path)
