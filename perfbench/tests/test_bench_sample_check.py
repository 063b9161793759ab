import cyclecap as cc
import workloads

MODELS = [("clt", (2000, 12, 1.0), 300)]


def test_sample_check_passes_exact_draws_and_flags_draws_off_the_law():
    check = workloads._sample_check(MODELS)
    job = workloads._sample_jobs(MODELS)(3, 0)[0]
    good = job.run()
    assert check([{job.name: good}], 3) == {}
    # draws at theta = 2 have other cycle-count means than the model's theta = 1
    wrong = dict(good, draws=cc.sample_lengths(cc.ConstraintModel(n=2000, alpha=12, theta=2.0), 300, 3))
    problems = check([{job.name: wrong}], 3)[job.name]
    assert any("off the exact law" in message for message in problems)
