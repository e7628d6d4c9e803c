"""Tests for the calibrated tier devices and their file-shaped clients."""

import pytest

from repro.bench import calibration as cal
from repro.errors import FileNotFound, OutOfSpace
from repro.sim.engine import Environment
from repro.tiers import DeviceModel, NVMDevice, PosixTierAdapter, TierClient
from repro.units import MiB


def run(env, gen):
    return env.run_until_complete(env.process(gen))


# -- the seam ---------------------------------------------------------------


def test_device_model_interface_is_abstract():
    dev = DeviceModel()
    for method in ("capacity_bytes", "write_bandwidth", "read_bandwidth",
                   "tier_sync"):
        with pytest.raises(NotImplementedError):
            getattr(dev, method)()
    for method in ("tier_write", "tier_read"):
        with pytest.raises(NotImplementedError):
            getattr(dev, method)(MiB(1))


def test_ssd_implements_device_model():
    import numpy as np

    from repro.nvme.device import SSD, intel_p4800x

    env = Environment()
    ssd = SSD(env, intel_p4800x(), "nvme0", rng=np.random.default_rng(0))
    assert isinstance(ssd, DeviceModel)
    assert ssd.capacity_bytes() == cal.P4800X_CAPACITY_BYTES
    assert ssd.write_bandwidth() == cal.P4800X_WRITE_BANDWIDTH
    assert ssd.read_bandwidth() == cal.P4800X_READ_BANDWIDTH

    def scenario():
        yield ssd.tier_write(MiB(4))
        yield ssd.tier_read(MiB(4))
        yield ssd.tier_sync()
        return env.now

    elapsed = run(env, scenario())
    floor = MiB(4) / cal.P4800X_WRITE_BANDWIDTH + MiB(4) / cal.P4800X_READ_BANDWIDTH
    assert elapsed > floor
    assert ssd.counters.get("tier_bytes_written") == MiB(4)


# -- NVM --------------------------------------------------------------------


def test_nvm_write_pays_latency_persist_and_bandwidth():
    env = Environment()
    nvm = NVMDevice(env)
    assert nvm.capacity_bytes() == cal.NVM_CAPACITY_BYTES

    def scenario():
        t0 = env.now
        yield nvm.tier_write(MiB(64))
        return env.now - t0

    elapsed = run(env, scenario())
    expected = (
        cal.NVM_WRITE_LATENCY
        + MiB(64) / cal.NVM_WRITE_BANDWIDTH
        + cal.NVM_PERSIST_BARRIER
    )
    assert elapsed == pytest.approx(expected, rel=1e-9)
    assert nvm.counters.get("bytes_written") == MiB(64)


def test_nvm_read_is_faster_than_write():
    env = Environment()
    nvm = NVMDevice(env)

    def timed(make_event):
        def scenario():
            t0 = env.now
            yield make_event()
            return env.now - t0
        return run(env, scenario())

    write = timed(lambda: nvm.tier_write(MiB(16)))
    read = timed(lambda: nvm.tier_read(MiB(16)))
    assert read < write  # 6.6 vs 2.3 GB/s, no persist barrier


# -- clients ----------------------------------------------------------------


def test_tier_client_roundtrip_and_loss():
    env = Environment()
    client = TierClient(NVMDevice(env))

    def scenario():
        yield from client.write_file("/ckpt/a", MiB(2))
        nbytes = yield from client.read_file("/ckpt/a")
        return nbytes

    assert run(env, scenario()) == MiB(2)
    client.lose_data()

    def reread():
        yield from client.read_file("/ckpt/a")

    with pytest.raises(FileNotFound):
        run(env, reread())


def test_tier_client_capacity_check():
    env = Environment()
    client = TierClient(NVMDevice(env, capacity_bytes=MiB(4)))

    def scenario():
        yield from client.write_file("/ckpt/too-big", MiB(8))

    with pytest.raises(OutOfSpace):
        run(env, scenario())


def test_tier_client_rewrite_takes_no_new_space():
    """A file rewritten with no more bytes than it held reuses its space;
    a larger rewrite and a new file take more, up to the capacity."""
    env = Environment()
    client = TierClient(NVMDevice(env, capacity_bytes=MiB(5)))

    def write(path, nbytes):
        def scenario():
            yield from client.write_file(path, nbytes)
        run(env, scenario())

    write("/ckpt/a", MiB(2))
    write("/ckpt/a", MiB(2))
    write("/ckpt/a", MiB(1))
    write("/ckpt/b", MiB(2))
    assert client.files == {"/ckpt/a": MiB(1), "/ckpt/b": MiB(2)}
    with pytest.raises(OutOfSpace):
        write("/ckpt/a", MiB(2))  # grows past its last size: 2 + 2 + 2 > 5
    write("/ckpt/c", MiB(1))
    with pytest.raises(OutOfSpace):
        write("/ckpt/d", 1)


def test_posix_adapter_over_microfs():
    from repro.bench.fleet import MicroFSFleet

    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    adapter = PosixTierAdapter(fleet.clients[0])

    def scenario():
        yield from adapter.write_file("/ckpt/x", MiB(1))
        nbytes = yield from adapter.read_file("/ckpt/x")
        return nbytes

    assert fleet.env.run_until_complete(
        fleet.env.process(scenario())) == MiB(1)

