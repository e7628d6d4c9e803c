"""DetLint corpus: DET007 — bare except around simulation code."""


def drive(env, proc):
    try:
        env.run()
    except:  # noqa: E722  DET007: swallows SimulationError and model errors
        pass


def drive_ok(env, proc):
    try:
        env.run()
    except RuntimeError:
        raise
