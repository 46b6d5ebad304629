"""Tests for repro.util.atomic.write_atomic."""

import os

import pytest

import repro.util.atomic as atomic
from repro.util.atomic import write_atomic


def test_replaces_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "entry.json"
    target.write_bytes(b"old")
    write_atomic(str(target), b"new")
    assert target.read_bytes() == b"new"
    assert sorted(os.listdir(tmp_path)) == ["entry.json"]


def test_name_clash_draws_another_name(tmp_path, monkeypatch):
    """A temp name already taken (another writer's) is never reused."""
    target = tmp_path / "entry.json"
    taken = tmp_path / f"entry.json.tmp.{1:016x}"
    taken.write_bytes(b"another writer's bytes")
    draws = iter([1, 1, 2])
    monkeypatch.setattr(atomic.random, "getrandbits", lambda bits: next(draws))
    write_atomic(str(target), b"mine")
    assert target.read_bytes() == b"mine"
    assert taken.read_bytes() == b"another writer's bytes"
    assert sorted(os.listdir(tmp_path)) == ["entry.json", taken.name]


def test_failed_write_removes_temp_and_keeps_target(tmp_path, monkeypatch):
    target = tmp_path / "entry.json"
    target.write_bytes(b"old")

    def broken_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(atomic.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk gone"):
        write_atomic(str(target), b"new")
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["entry.json"]


def test_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_atomic(str(tmp_path / "absent" / "entry.json"), b"x")
