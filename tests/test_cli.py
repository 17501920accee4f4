import math
import re

import numpy as np
import pytest

from cliptrap import cli, sweeps
from cliptrap.cli import main
from cliptrap.cloud import trap_volume
from cliptrap.estimation import DataSet
from cliptrap.flatfile import read_csv
from conftest import make_scenario


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def run(*argv):
    return main(list(argv))


class TestPredict:
    def test_paper_defaults_values(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run("predict", "--paper-defaults", "--out", str(out)) == 0
        rep = read_report(out)
        r = float(rep["loading_rate_atoms_per_s"])
        assert abs(r - 9.5e7) / 9.5e7 < 0.15
        assert 1.0 <= float(rep["tau_eff_s"]) <= 3.0
        assert 1e8 <= float(rep["n_steady_atoms"]) <= 6e8
        assert rep["majorana_safe"] == "False"
        assert float(rep["t_mt_virial_prediction_uk"]) == pytest.approx(
            52.5, rel=1e-6, abs=0)

    def test_paper_defaults_report_is_pinned(self, capsys):
        # every line's key, unit and digits, byte for byte
        assert run("predict", "--paper-defaults") == 0
        assert capsys.readouterr().out == (
            "loading_rate_atoms_per_s = 9.46248e+07\n"
            "gamma_ed_per_s = 0.271814\n"
            "v_mt_cm3 = 0.00551847\n"
            "v_mt_cm3_no_gravity = 0.00539624\n"
            "v_eff_cm3 = 0.00551847\n"
            "n_steady_atoms = 1.15778e+08\n"
            "kappa = 23.1556\n"
            "tau_eff_s = 1.22355\n"
            "t_mt_virial_prediction_uk = 52.5\n"
            "majorana_safe = False\n")

    def test_offset_forty_milligauss_safe(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run("predict", "--paper-defaults", "--set", "b0_mg=40",
                   "--out", str(out)) == 0
        assert read_report(out)["majorana_safe"] == "True"

    def test_eta_zero_zeroes_accumulation(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run("predict", "--paper-defaults", "--set", "eta=0",
                   "--out", str(out)) == 0
        rep = read_report(out)
        assert float(rep["loading_rate_atoms_per_s"]) == 0.0
        assert float(rep["n_steady_atoms"]) == 0.0
        assert float(rep["kappa"]) == 0.0

    @pytest.mark.parametrize("override", ["mot_saturation=2",
                                          "gamma_d_per_s=0.05",
                                          "v_eff_cm3=2e-3"])
    def test_kappa_is_steady_state_per_mot_atom(self, tmp_path, override):
        # off the master curve's assumptions (saturated MOT, gamma_d = 0,
        # V_eff = V_MT) kappa still reports N_inf / N_MOT
        out = tmp_path / "report.txt"
        assert run("predict", "--paper-defaults", "--set", override,
                   "--out", str(out)) == 0
        rep = read_report(out)
        assert float(rep["kappa"]) * 5e6 == pytest.approx(
            float(rep["n_steady_atoms"]), rel=1e-5, abs=0)

    def test_config_file_with_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# minimal run\nb_prime_g_per_cm = 12.5\n"
                           "b_dprime_g_per_cm2 = 10.5\nn_mot = 5e6\n"
                           "t_mot_uk = 140\nbeta_dd_cm3_per_s = 1.3e-11\n")
        out = tmp_path / "report.txt"
        assert run("predict", "--config", str(cfgfile), "--out", str(out)) == 0
        assert float(read_report(out)["n_steady_atoms"]) > 0

    def test_missing_config_is_error(self, capsys):
        assert run("predict") == 2
        assert "config" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("this line has no equals sign\n")
        assert run("predict", "--config", str(cfgfile)) == 2

    def test_bad_set_flag(self, capsys):
        assert run("predict", "--paper-defaults", "--set", "eta") == 2

    def test_untrapped_configuration(self, capsys):
        assert run("predict", "--paper-defaults", "--set",
                   "b_prime_g_per_cm=1.0") == 2
        assert "untrapped" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,t_key", [
        (["b_prime_g_per_cm=1e305"], "t_mt_uk"),
        (["b_prime_g_per_cm=1e305", "t_mt_uk=0"], "t_mot_uk"),
        (["b_prime_g_per_cm=1e-300"], "t_mt_uk"),
        (["b_prime_g_per_cm=1e100", "b_dprime_g_per_cm2=1e300"], "t_mt_uk"),
        (["b_dprime_g_per_cm2=1e-310"], "t_mt_uk"),
        (["t_mt_uk=1e300"], "t_mt_uk"),
        (["t_mt_uk=1e-300"], "t_mt_uk")])
    def test_cloud_out_of_range_names_its_keys(self, extra, t_key, capsys):
        # the trap temperature's key is t_mot_uk when t_mt_uk = 0 asks for
        # the virial prediction; a scale length, n0 or V_MT under- or
        # overflows, whichever comes first. B' = 1e100 and B'' = 1e300
        # each give a normal V_MT alone but underflow it together
        for command in ("predict", "simulate", "synth"):
            assert run(command, "--paper-defaults",
                       *(a for kv in extra for a in ("--set", kv))) == 2
            assert capsys.readouterr().err == (
                "error: trap cloud size under- or overflows a float; it is "
                f"set by b_prime_g_per_cm, b_dprime_g_per_cm2 and {t_key}\n")

    @pytest.mark.parametrize("setting", [
        "b_prime_g_per_cm=1e74", "b_prime_g_per_cm=1e100",
        "b_prime_g_per_cm=1e102", "b_dprime_g_per_cm2=1e300"])
    def test_huge_trap_fields_give_the_closed_form(self, setting, capsys):
        # V_MT is a normal float here; formed through n0^2, it exited 2
        # with a cloud range error
        assert run("predict", "--paper-defaults", "--set", setting) == 0
        report = dict(line.split(" = ") for line in
                      capsys.readouterr().out.splitlines())
        assert all(math.isfinite(float(value)) for key, value in
                   report.items() if key != "majorana_safe")
        key, value = setting.split("=")
        scen = cli.scenario_from_config({**cli.PAPER_DEFAULTS, key: value})
        kt = 1.380649e-23 * scen.mt_temperature
        mu_b1 = scen.species.magnetic_moment * scen.trap.radial_gradient
        xi1 = kt / mu_b1
        sigma_z = math.sqrt(kt / (scen.species.magnetic_moment
                                  * scen.trap.axial_curvature))
        r = scen.species.mass * 9.80665 / mu_b1
        no_gravity = 16 * math.pi ** 1.5 * xi1 ** 2 * sigma_z
        assert scen.v_mt == pytest.approx(no_gravity / (1 - r * r) ** 1.5,
                                          rel=1e-14, abs=0)
        assert trap_volume(scen.species, scen.trap, scen.mt_temperature,
                           False) == pytest.approx(no_gravity, rel=1e-14,
                                                   abs=0)


class TestSimulate:
    def test_final_value_matches_predict(self, tmp_path):
        rep = tmp_path / "report.txt"
        run("predict", "--paper-defaults", "--out", str(rep))
        n_inf = float(read_report(rep)["n_steady_atoms"])
        csv = tmp_path / "sim.csv"
        assert run("simulate", "--paper-defaults", "--out", str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t_s,n_atoms"
        table = np.loadtxt(lines[1:], delimiter=",")
        assert table[-1, 1] == pytest.approx(n_inf, rel=1e-3, abs=0)

    def test_fixed_point_start_is_flat(self, tmp_path):
        rep = tmp_path / "report.txt"
        run("predict", "--paper-defaults", "--out", str(rep))
        n_inf = read_report(rep)["n_steady_atoms"]
        csv = tmp_path / "sim.csv"
        assert run("simulate", "--paper-defaults", "--set",
                   f"n0_atoms={n_inf}", "--out", str(csv)) == 0
        table = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",")
        assert np.all(np.abs(table[:, 1] / float(n_inf) - 1) < 1e-5)

    def test_decay_tail_stays_positive(self, tmp_path):
        # eta = 0 decays from n0 on the rate equation's one core; the tail
        # near 1e-14 atoms used to cancel to 0
        csv = tmp_path / "sim.csv"
        assert run("simulate", "--paper-defaults", "--set", "eta=0",
                   "--set", "n0_atoms=2e8", "--set", "t_end_s=2000",
                   "--out", str(csv)) == 0
        table = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",")
        assert np.all(table[:, 1] > 0)
        assert np.all(np.diff(table[:, 1]) < 0)

    def test_reaches_steady_state_at_huge_n_mot(self, tmp_path):
        # gamma * gamma overflows a float at n_mot = 1e300, where R / gamma
        # is about 3.5e8: neither N_inf nor D may be formed from it
        csv = tmp_path / "sim.csv"
        assert run("simulate", "--paper-defaults", "--set", "n_mot=1e300",
                   "--out", str(csv)) == 0
        table = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",")
        assert table[-1, 1] == pytest.approx(3.48123e8, rel=1e-6, abs=0)

    def test_two_samples(self, tmp_path):
        csv = tmp_path / "sim.csv"
        assert run("simulate", "--paper-defaults", "--set", "samples=2",
                   "--out", str(csv)) == 0
        rows = [ln for ln in csv.read_text().splitlines() if ln][1:]
        assert len(rows) == 2


class TestSweep:
    def test_gradient_sweep_csv(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults",
                   "--set", "sweep_parameter=radial_gradient",
                   "--set", "sweep_start=8", "--set", "sweep_stop=20",
                   "--set", "sweep_points=4", "--out", str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("radial_gradient_g_per_cm,")
        assert lines[0].endswith(",error")
        assert len(lines) == 5

    def test_paper_defaults_alone(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults", "--out", str(csv)) == 0
        table = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",",
                           usecols=range(7))
        assert table[:, 0] == pytest.approx(np.linspace(8.0, 20.0, 10),
                                            rel=1e-6, abs=0)

    def test_explicit_values_and_nmot_csv(self, tmp_path):
        nmot = tmp_path / "nmot.csv"
        nmot.write_text("b_prime,n_mot,sigma\n10,4e6,1\n12.5,5e6,1\n"
                        "15,4.5e6,1\n")
        csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults",
                   "--set", "sweep_values=10,12.5,15",
                   "--set", f"sweep_nmot_csv={nmot}",
                   "--set", "sweep_outputs=n_mot,kappa",
                   "--out", str(csv)) == 0
        lines = csv.read_text().splitlines()
        n_mots = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert n_mots == [4e6, 5e6, 4.5e6]

    # Sweep CSVs with all nine outputs, byte for byte: one per swept
    # parameter (the radial one with an untrapped point), eta = 0, and
    # per-point MOT atom numbers from sweep_nmot_csv
    ALL_OUTPUTS = ",".join(sweeps.OUTPUTS)
    HEADER = ",n_mot,n_mt_steady,loading_rate,tau_eff,v_mt,kappa,"
    PINNED = {
        ("sweep_parameter=radial_gradient",
         "sweep_values=1.0,8.0,12.5,20.0"): (
            "radial_gradient_g_per_cm" + HEADER +
            "kappa_abscissa,t_mt_prediction,majorana_safe,error\n"
            "1,nan,nan,nan,nan,nan,nan,nan,nan,nan,untrapped cloud: gravity "
            "scale xi2 must exceed xi1\n"
            "8,5000000,198100092.121,94624770.7261,2.09353312669,"
            "0.0139232564267,39.6200184242,5.26993978855e-14,5.25e-05,0,\n"
            "12.5,5000000,115777859.219,94624770.7261,1.22354705148,"
            "0.00551847169235,23.1555718438,2.08873647459e-14,5.25e-05,0,\n"
            "20,5000000,63732209.7337,94624770.7261,0.673525644973,"
            "0.00212634568679,12.7464419467,8.04819892387e-15,5.25e-05,0,\n"),
        ("sweep_parameter=axial_curvature", "sweep_start=2",
         "sweep_stop=30", "sweep_points=3"): (
            "axial_curvature_g_per_cm2" + HEADER +
            "kappa_abscissa,t_mt_prediction,majorana_safe,error\n"
            "2,5000000,187603230.945,94624770.7261,1.98260169621,"
            "0.0126444071253,37.520646189,4.78589650081e-14,5.25e-05,0,\n"
            "16,5000000,101928476.002,94624770.7261,1.07718597593,"
            "0.0044704730112,20.3856952003,1.69206993489e-14,5.25e-05,0,\n"
            "30,5000000,83910034.134,94624770.7261,0.88676604963,"
            "0.00326477188127,16.7820068268,1.23571316295e-14,5.25e-05,0,\n"),
        ("sweep_parameter=offset_field", "sweep_values=0,50,500"): (
            "offset_field_mg" + HEADER +
            "kappa_abscissa,t_mt_prediction,majorana_safe,error\n"
            "0,5000000,115777859.219,94624770.7261,1.22354705148,"
            "0.00551847169235,23.1555718438,2.08873647459e-14,5.25e-05,0,\n"
            "50,5000000,115777859.219,94624770.7261,1.22354705148,"
            "0.00551847169235,23.1555718438,2.08873647459e-14,5.25e-05,1,\n"
            "500,5000000,115777859.219,94624770.7261,1.22354705148,"
            "0.00551847169235,23.1555718438,2.08873647459e-14,5.25e-05,1,\n"),
        ("sweep_parameter=radial_gradient", "sweep_values=8,20", "eta=0"): (
            "radial_gradient_g_per_cm" + HEADER +
            "kappa_abscissa,t_mt_prediction,majorana_safe,error\n"
            "8,5000000,0,0,inf,0.0139232564267,0,0,5.25e-05,0,\n"
            "20,5000000,0,0,inf,0.00212634568679,0,0,5.25e-05,0,\n"),
    }

    @pytest.mark.parametrize("sets", PINNED)
    def test_all_outputs_pinned(self, sets, capsys):
        argv = ["sweep", "--paper-defaults",
                "--set", f"sweep_outputs={self.ALL_OUTPUTS}"]
        for item in sets:
            argv += ["--set", item]
        assert run(*argv) == 0
        assert capsys.readouterr().out == self.PINNED[sets]

    def test_no_loss_channel_rate_outputs_pinned(self, capsys):
        # R and the abscissa need no loss coefficient, and all three
        # default to 0 without --paper-defaults
        assert run("sweep", "--paper-defaults",
                   "--set", "beta_dd_cm3_per_s=0",
                   "--set", "beta_ed_cm3_per_s=0", "--set", "gamma_d_per_s=0",
                   "--set", "sweep_values=8,12.5,20",
                   "--set", "sweep_outputs=loading_rate,kappa_abscissa") == 0
        assert capsys.readouterr().out == (
            "radial_gradient_g_per_cm,loading_rate,kappa_abscissa,error\n"
            "8,94624770.7261,5.26993978855e-14,\n"
            "12.5,94624770.7261,2.08873647459e-14,\n"
            "20,94624770.7261,8.04819892387e-15,\n")

    def test_nmot_csv_sweep_pinned(self, tmp_path, capsys):
        nmot = tmp_path / "nmot.csv"
        nmot.write_text("b_prime_g_per_cm,n_mot,sigma\n8,4e6,1\n"
                        "12.5,5.5e6,1\n20,6e6,1\n")
        assert run("sweep", "--paper-defaults",
                   "--set", "sweep_values=8,12.5,20",
                   "--set", f"sweep_nmot_csv={nmot}") == 0
        assert capsys.readouterr().out == (
            "radial_gradient_g_per_cm" + self.HEADER + "error\n"
            "8,4000000,179581762.284,75699816.5809,2.37228794461,"
            "0.0139232564267,44.895440571,\n"
            "12.5,5500000,120253594.227,104087247.799,1.15531534141,"
            "0.00551847169235,21.8642898595,\n"
            "20,6000000,67778991.3326,113549724.871,0.596910220693,"
            "0.00212634568679,11.2964985554,\n")

    def test_nmot_csv_zero_is_a_point_error(self, tmp_path, capsys):
        # it used to print kappa = nan with an empty error cell
        nmot = tmp_path / "nmot.csv"
        nmot.write_text("b_prime_g_per_cm,n_mot,sigma\n8,0,1\n20,6e6,1\n")
        assert run("sweep", "--paper-defaults", "--set", "sweep_values=8,20",
                   "--set", f"sweep_nmot_csv={nmot}") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "8,nan,nan,nan,nan,nan,nan,n_mot must be > 0"
        assert lines[2].startswith("20,6000000,67778991.3326,")

    def test_nmot_csv_missing_value(self, tmp_path):
        nmot = tmp_path / "nmot.csv"
        nmot.write_text("b_prime,n_mot,sigma\n10,4e6,1\n")
        assert run("sweep", "--paper-defaults",
                   "--set", "sweep_values=10,12.5",
                   "--set", f"sweep_nmot_csv={nmot}") == 2

    @pytest.mark.parametrize("parameter,values", [
        ("offset_field", ("1e-10", "2e-10")),
        ("radial_gradient", ("12.5000000001", "12.5000000004"))])
    def test_nmot_csv_rows_that_round_alike_rejected(self, parameter, values,
                                                      tmp_path, capsys):
        # rows are matched to 9 decimals; the later row's n_mot used to
        # serve both points
        nmot = tmp_path / "nmot.csv"
        nmot.write_text(f"value,n_mot,sigma\n{values[0]},3e6,1\n"
                        f"{values[1]},7e6,1\n")
        assert run("sweep", "--paper-defaults",
                   "--set", f"sweep_parameter={parameter}",
                   "--set", f"sweep_values={','.join(values)}",
                   "--set", "sweep_outputs=n_mot,kappa",
                   "--set", f"sweep_nmot_csv={nmot}") == 2
        assert capsys.readouterr() == ("", (
            f"error: {nmot}: two rows of sweep_nmot_csv round to the same "
            "value at 9 decimals\n"))

    def test_zero_loading_rate_points_hold_values(self, tmp_path):
        # no loading is no point error: tau_eff = N/R is inf at R = 0, the
        # value predict prints, and the other outputs are filled in
        csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults", "--set", "eta=0",
                   "--set", "sweep_points=2", "--out", str(csv)) == 0
        header, *rows = [ln.split(",") for ln in csv.read_text().splitlines()]
        assert len(rows) == 2
        for cells in (dict(zip(header, row)) for row in rows):
            assert cells["error"] == ""
            assert float(cells["n_mot"]) == 5e6
            assert float(cells["v_mt"]) > 0
            assert float(cells["kappa"]) == 0
            assert float(cells["tau_eff"]) == math.inf

    def test_bad_sweep_parameter(self, capsys):
        # one check, SweepSpec's, and so one message on both paths, with
        # listed values or a start-stop range
        with pytest.raises(ValueError) as spec_error:
            sweeps.SweepSpec("detuning", [1.0, 2.0], make_scenario())
        for values in (["--set", "sweep_values=1,2"], []):
            assert run("sweep", "--paper-defaults",
                       "--set", "sweep_parameter=detuning", *values) == 2
            assert capsys.readouterr().err == (
                f"error: config key sweep_parameter: {spec_error.value}\n")

    def test_unit_table_covers_the_sweepable_parameters(self):
        # a sweep's first column names the swept input and the unit of
        # the key that feeds it, for exactly the parameters a sweep takes
        assert cli._SWEEP_COLUMN == {
            "radial_gradient": "radial_gradient_g_per_cm",
            "axial_curvature": "axial_curvature_g_per_cm2",
            "offset_field": "offset_field_mg"}
        assert tuple(cli._SWEEP_COLUMN) == sweeps.SWEEPABLE

    def test_default_outputs_have_one_home(self):
        spec = sweeps.SweepSpec("radial_gradient", [0.1], make_scenario())
        assert tuple(spec.outputs) == sweeps.DEFAULT_OUTPUTS
        assert cli.KEYS["sweep_outputs"].default.split(",") == list(
            sweeps.DEFAULT_OUTPUTS)

    def test_sweep_output_feeds_kappa_fit(self, tmp_path):
        sweep_csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults",
                   "--set", "sweep_parameter=radial_gradient",
                   "--set", "sweep_start=8", "--set", "sweep_stop=20",
                   "--set", "sweep_points=8",
                   "--set", "sweep_outputs=kappa_abscissa,kappa",
                   "--out", str(sweep_csv)) == 0
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "kappa", "--paper-defaults",
                   "--data", str(sweep_csv), "--out", str(fit_out)) == 0
        rep = read_report(fit_out)
        assert float(rep["beta_dd_cm3_per_s"]) == pytest.approx(
            1.3e-11, rel=1e-3, abs=0)
        assert float(rep["beta_ed_cm3_per_s"]) == pytest.approx(
            6e-10, rel=1e-3, abs=0)

    @pytest.mark.parametrize("key", ["v_mt_cm3", "v_eff_cm3"])
    def test_given_volume_rejected(self, key, tmp_path, capsys):
        # the sweep recomputes both volumes at every point, so a given one
        # could not be honoured
        csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults", "--set", "sweep_points=2",
                   "--set", f"{key}=1e-3", "--out", str(csv)) == 2
        assert (f"config key {key} cannot be given to a sweep"
                in capsys.readouterr().err)
        assert not csv.exists()

    def test_failed_point_skipped_by_kappa_fit(self, tmp_path):
        # 1 G/cm is below the gravity-sag limit: that point fails, the rest
        # still determine both coefficients
        sweep_csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults",
                   "--set", "sweep_values=1.0,8,10,12,14",
                   "--set", "sweep_outputs=kappa_abscissa,kappa",
                   "--out", str(sweep_csv)) == 0
        assert sweep_csv.read_text().splitlines()[1].startswith("1,nan,nan,un")
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "kappa", "--paper-defaults",
                   "--data", str(sweep_csv), "--out", str(fit_out)) == 0
        rep = read_report(fit_out)
        assert float(rep["beta_dd_cm3_per_s"]) == pytest.approx(
            1.3e-11, rel=1e-3, abs=0)

    def test_bad_cell_in_good_point_rejected(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        assert run("sweep", "--paper-defaults",
                   "--set", "sweep_values=8,10,12,14",
                   "--set", "sweep_outputs=kappa_abscissa,kappa",
                   "--out", str(sweep_csv)) == 0
        lines = sweep_csv.read_text().splitlines()
        lines[2] = "10,3e-14,x,"
        sweep_csv.write_text("\n".join(lines) + "\n")
        assert run("fit", "kappa", "--paper-defaults",
                   "--data", str(sweep_csv)) == 2
        assert f"{sweep_csv}:3: not a finite number: 'x'" in (
            capsys.readouterr().err)


class TestSynthAndFit:
    def test_synth_seed_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("synth", "--paper-defaults", "--seed", "1",
                   "--out", str(a)) == 0
        assert run("synth", "--paper-defaults", "--seed", "1",
                   "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_fit_kappa_pipeline(self, tmp_path):
        csv = tmp_path / "kappa.csv"
        assert run("synth", "--paper-defaults", "--seed", "1",
                   "--out", str(csv)) == 0
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "kappa", "--paper-defaults", "--data", str(csv),
                   "--out", str(fit_out)) == 0
        rep = read_report(fit_out)
        assert abs(float(rep["beta_dd_cm3_per_s"]) - 1.3e-11) < 0.3 * 1.3e-11
        assert abs(float(rep["beta_ed_cm3_per_s"]) - 6e-10) < 0.3 * 6e-10
        assert abs(float(rep["correlation"])) > 0.5
        assert re.fullmatch(r"-?[01]\.\d{4}", rep["correlation"])
        assert rep["converged"] == "True"

    @pytest.mark.parametrize("row,bad", [("abc,1,2", "abc"),
                                         ("1e-20,nan,0.1", "nan"),
                                         ("1e-14,3", "")])
    def test_fit_kappa_rejects_bad_row(self, tmp_path, capsys, row, bad):
        # a synth CSV has no error column, so no row of it may be skipped
        csv = tmp_path / "kappa.csv"
        assert run("synth", "--paper-defaults", "--set", "synth_noise=0.01",
                   "--out", str(csv)) == 0
        lines = csv.read_text().splitlines()
        lines[3] = row
        csv.write_text("\n".join(lines) + "\n")
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "kappa", "--paper-defaults", "--data", str(csv),
                   "--out", str(fit_out)) == 2
        assert (f"{csv}:4: not a finite number: '{bad}'"
                in capsys.readouterr().err)
        assert not fit_out.exists()

    def test_synth_fit_decay_pipeline(self, tmp_path):
        csv = tmp_path / "decay.csv"
        assert run("synth", "--paper-defaults",
                   "--set", "synth_kind=decay_curve",
                   "--set", "synth_noise=0.05",
                   "--set", "gamma_d_per_s=0.02",
                   "--set", "beta_dd_cm3_per_s=3.8e-11",
                   "--seed", "3", "--out", str(csv)) == 0
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "decay", "--paper-defaults",
                   "--set", "beta_dd_cm3_per_s=3.8e-11",
                   "--set", "gamma_d_per_s=0.02",
                   "--data", str(csv), "--out", str(fit_out)) == 0
        rep = read_report(fit_out)
        assert abs(float(rep["gamma_per_s"]) - 0.02) < 0.2 * 0.02
        assert abs(float(rep["beta_dd_cm3_per_s"]) - 3.8e-11) < 0.2 * 3.8e-11

    def test_synth_fit_tof_pipeline(self, tmp_path):
        csv = tmp_path / "tof.csv"
        assert run("synth", "--paper-defaults",
                   "--set", "synth_kind=tof_series",
                   "--set", "synth_noise=0.03", "--set", "synth_points=8",
                   "--seed", "5", "--out", str(csv)) == 0
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "tof", "--paper-defaults", "--data", str(csv),
                   "--out", str(fit_out)) == 0
        rep = read_report(fit_out)
        assert float(rep["temperature_uk"]) == pytest.approx(100.0,
                                                             rel=0.15, abs=0)

    def test_fit_loading_rate(self, tmp_path):
        csv = tmp_path / "load.csv"
        assert run("synth", "--paper-defaults",
                   "--set", "synth_kind=loading_curve",
                   "--set", "synth_noise=0", "--set", "synth_points=200",
                   "--out", str(csv)) == 0
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "loading-rate", "--paper-defaults",
                   "--data", str(csv), "--out", str(fit_out)) == 0
        rate = float(read_report(fit_out)["loading_rate_atoms_per_s"])
        assert rate == pytest.approx(9.46e7, rel=0.10, abs=0)

    def test_fit_empty_csv(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("t_s,n_atoms,sigma_n_atoms\n")
        assert run("fit", "decay", "--paper-defaults",
                   "--data", str(csv)) == 2
        assert "rows" in capsys.readouterr().err

    def test_fit_missing_data_flag(self, capsys):
        assert run("fit", "kappa", "--paper-defaults") == 2

    def test_fit_missing_file(self, tmp_path):
        assert run("fit", "kappa", "--paper-defaults",
                   "--data", str(tmp_path / "nope.csv")) == 2

    def test_fit_profile(self, tmp_path):
        # forward-model a long-format profile table at 100 uK
        from cliptrap.cloud import column_density, make_thermal_cloud
        from cliptrap.species import chromium_52
        from cliptrap.trap import IpTrapConfig

        cl = make_thermal_cloud(chromium_52(), IpTrapConfig(0.125, 10.5),
                                n=1e8, t=100e-6)
        y_mm = np.linspace(-0.8, 0.8, 17)
        z_mm = np.linspace(-5.0, 5.0, 11)
        lines = ["y_mm,z_mm,column_density"]
        for ym in y_mm:
            for zm in z_mm:
                val = column_density(cl, ym * 1e-3, zm * 1e-3)
                lines.append(f"{ym:.6g},{zm:.6g},{val:.10g}")
        csv = tmp_path / "profile.csv"
        csv.write_text("\n".join(lines) + "\n")
        fit_out = tmp_path / "fit.txt"
        assert run("fit", "profile", "--paper-defaults", "--data", str(csv),
                   "--out", str(fit_out)) == 0
        rep = read_report(fit_out)
        assert float(rep["temperature_uk"]) == pytest.approx(100.0,
                                                             rel=1e-3, abs=0)


NON_FINITE_FILES = {  # fit kind: CSV text with {bad} on line 4
    "loading-rate": ("t_s,n_atoms,sigma_n_atoms\n0,0,1\n0.05,5e6,1\n"
                     "0.1,{bad},1\n0.15,1.4e7,1\n0.2,1.9e7,1\n"),
    "kappa": ("x,y,sigma_y\n1e-14,3,0.03\n2e-14,4,0.04\n4e-14,{bad},0.05\n"
              "8e-14,7,0.07\n"),
    "decay": ("t_s,n_atoms,sigma_n_atoms\n0,2e8,2e6\n1,1.5e8,1.5e6\n"
              "2,{bad},1.2e6\n5,8e7,8e5\n10,5e7,5e5\n"),
    "tof": ("t_s,sigma_m,sigma_sigma_m\n0.001,2e-4,2e-6\n0.004,3e-4,3e-6\n"
            "0.006,{bad},4e-6\n0.008,5e-4,5e-6\n"),
    "profile": ("y_mm,z_mm,column_density\n-0.1,-1,1e12\n-0.1,1,1e12\n"
                "0.1,-1,{bad}\n0.1,1,1e12\n"),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_FILES))
def test_fit_rejects_non_finite_data(tmp_path, capfd, kind, bad):
    # a non-finite sample used to reach the solvers: "model not evaluable"
    # for decay, LAPACK's DLASCL complaint and "SVD did not converge" for
    # tof; now the reader names the file and line, and nothing is written
    csv = tmp_path / "data.csv"
    csv.write_text(NON_FINITE_FILES[kind].format(bad=bad))
    out = tmp_path / "fit.txt"
    assert run("fit", kind, "--paper-defaults", "--data", str(csv),
               "--out", str(out)) == 2
    captured = capfd.readouterr()
    assert f"{csv}:4: not a finite number: '{bad}'" in captured.err
    assert "DLASCL" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("row", ["bad cell", "short row"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_FILES))
def test_fit_error_names_data_file_once(tmp_path, capsys, kind, row):
    # a row with a missing cell used to reach numpy as a ragged list, which
    # exited with its "inhomogeneous shape" text, and a bad cell in an
    # (x, y, sigma) file was reported as "<path>: <path>:<line>: ..."
    text = NON_FINITE_FILES[kind]
    text, bad = ((text.format(bad="abc"), "abc") if row == "bad cell"
                 else (text.replace(",{bad}", ""), ""))
    csv = tmp_path / "data.csv"
    csv.write_text(text)
    assert run("fit", kind, "--paper-defaults", "--data", str(csv)) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}:4: not a finite number: '{bad}'\n")


def test_fit_profile_with_non_positive_pixels(tmp_path):
    # noise in the wings of an image can leave pixels at or below zero;
    # the profile table is not read as (x, y, sigma) rows
    from cliptrap.cloud import column_density, make_thermal_cloud
    from cliptrap.species import chromium_52
    from cliptrap.trap import IpTrapConfig

    cl = make_thermal_cloud(chromium_52(), IpTrapConfig(0.125, 10.5),
                            n=1e8, t=100e-6)
    lines = ["y_mm,z_mm,column_density"]
    for ym in np.linspace(-0.8, 0.8, 17):
        for zm in np.linspace(-5.0, 5.0, 11):
            val = column_density(cl, ym * 1e-3, zm * 1e-3)
            if abs(ym) > 0.75 and abs(zm) > 4.5:
                val = -1e-3 * cl.peak_density * cl.xi1 if zm > 0 else 0.0
            lines.append(f"{ym:.6g},{zm:.6g},{val:.10g}")
    csv = tmp_path / "profile.csv"
    csv.write_text("\n".join(lines) + "\n")
    fit_out = tmp_path / "fit.txt"
    assert run("fit", "profile", "--paper-defaults", "--data", str(csv),
               "--out", str(fit_out)) == 0
    rep = read_report(fit_out)
    assert float(rep["temperature_uk"]) == pytest.approx(100.0,
                                                         rel=0.02, abs=0)


def test_fit_tof_sigma_from_the_normal_equations(tmp_path, capsys):
    # the covariance is the inverse of the weighted normal matrix A^T A,
    # mapped to (sigma0, T) by the delta method: the printed sigmas are
    # those of numpy's inverse to every digit
    from cliptrap.species import BOLTZMANN, chromium_52

    csv = tmp_path / "tof.csv"
    assert run("synth", "--paper-defaults", "--set", "synth_kind=tof_series",
               "--set", "synth_noise=0.03", "--seed", "11",
               "--out", str(csv)) == 0
    assert run("fit", "tof", "--paper-defaults", "--data", str(csv)) == 0
    rep = dict(line.split(" = ") for line in
               capsys.readouterr().out.splitlines())
    data = DataSet.from_rows(csv, *read_csv(csv))
    w = 1.0 / (2.0 * np.abs(data.y) * data.sigma_y)
    a = np.column_stack([np.ones_like(data.x), data.x ** 2]) * w[:, None]
    cov = np.linalg.inv(a.T @ a)
    sigma_t = chromium_52().mass / BOLTZMANN * np.sqrt(cov[1, 1])
    assert rep["temperature_sigma_uk"] == f"{sigma_t * 1e6:.6g}"


@pytest.mark.parametrize("flag", ["--data", "--out"])
def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys, flag):
    # a directory given as the data file or the output file used to end in
    # an IsADirectoryError traceback with exit code 1
    where = tmp_path / "a_directory"
    where.mkdir()
    argv = (["fit", "decay", "--paper-defaults", "--data", str(where)]
            if flag == "--data" else
            ["predict", "--paper-defaults", "--out", str(where)])
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(where) in err
    assert where.is_dir() and list(where.iterdir()) == []
    assert [p.name for p in tmp_path.iterdir()] == ["a_directory"]


def test_row_width_checked_against_the_header(tmp_path, capsys):
    # a row longer than the header used to reach numpy as a ragged list,
    # and a profile table of two columns ended in an IndexError traceback;
    # a sweep's error message may still hold commas
    csv = tmp_path / "decay.csv"
    csv.write_text("t_s,n_atoms,sigma_n_atoms\n0,2e8,1\n1,1.4e8,1,9\n"
                   "2,1.2e8,1\n5,8e7,1\n")
    assert run("fit", "decay", "--paper-defaults", "--data", str(csv)) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}:3: 4 cells, but the header has 3\n")

    profile = tmp_path / "profile.csv"
    profile.write_text("y_mm,z_mm\n-0.1,-1\n-0.1,1\n0.1,-1\n0.1,1\n")
    assert run("fit", "profile", "--paper-defaults",
               "--data", str(profile)) == 2
    assert capsys.readouterr().err == (
        f"error: {profile}: expected 3 columns (y_mm, z_mm, "
        "column_density), got 2\n")

    sweep = tmp_path / "sweep.csv"
    assert run("sweep", "--paper-defaults",
               "--set", "sweep_values=1.0,8,10,12,14",
               "--set", "sweep_outputs=kappa_abscissa,kappa",
               "--out", str(sweep)) == 0
    lines = sweep.read_text().splitlines()
    lines[1] += ", with, commas"
    sweep.write_text("\n".join(lines) + "\n")
    fit_out = tmp_path / "fit.txt"
    assert run("fit", "kappa", "--paper-defaults", "--data", str(sweep),
               "--out", str(fit_out)) == 0
    assert float(read_report(fit_out)["beta_dd_cm3_per_s"]) == (
        pytest.approx(1.3e-11, rel=1e-3, abs=0))


TOO_FEW_DISTINCT = {  # fit kind: a file of one sample time too few, and
    # the error; each of these used to print a value and exit 0
    "loading-rate": ("t_s,n_atoms,sigma_n_atoms\n0,0,1\n0.1,5e6,1\n"
                     "0.2,9e6,1\n0.2,9.1e6,1\n0.2,8.9e6,1\n",
                     "need at least 4 samples at distinct times"),
    "decay": ("t_s,n_atoms,sigma_n_atoms\n1,2e8,2e6\n1,1.5e8,1.5e6\n"
              "1,1e8,1e6\n1,8e7,8e5\n1,5e7,5e5\n",
              "need at least 3 samples at distinct times"),
    "kappa": ("x,y,sigma_y\n1e-14,3,0.03\n1e-14,4,0.04\n1e-14,5,0.05\n"
              "1e-14,7,0.07\n", "need at least 3 distinct abscissae"),
    "tof": ("t_s,sigma_m,sigma_sigma_m\n0.004,2e-4,2e-6\n0.004,3e-4,3e-6\n"
            "0.004,4e-4,4e-6\n", "need at least 2 distinct expansion times"),
}


@pytest.mark.parametrize("kind", sorted(TOO_FEW_DISTINCT))
def test_fit_needs_distinct_sample_times(tmp_path, capsys, kind):
    # a fit's minimum number of samples counts distinct abscissae: equal
    # times divided by zero in the decay fit's start value and reported
    # beta_dd at its bound as converged, and the other fits printed values
    text, message = TOO_FEW_DISTINCT[kind]
    csv = tmp_path / "data.csv"
    csv.write_text(text)
    out = tmp_path / "fit.txt"
    assert run("fit", kind, "--paper-defaults", "--data", str(csv),
               "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_profile_table_with_a_duplicated_point(tmp_path, capsys):
    # four rows on a 2 x 2 grid with (0, 0) twice and (0, 1) missing: the
    # row count matched the grid, and the hole reached the fit as NaN
    csv = tmp_path / "profile.csv"
    csv.write_text("y_mm,z_mm,column_density\n0,0,1\n0,0,2\n1,0,3\n1,1,4\n")
    assert run("fit", "profile", "--paper-defaults", "--data", str(csv)) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}: profile table is not a complete y/z grid\n")


# a file of each kind, by the command that writes it
KIND_FILES = {
    "a time series": ("synth", "--set", "synth_kind=decay_curve"),
    "kappa points": ("synth",),
    "a sweep table": ("sweep", "--set", "sweep_outputs=kappa_abscissa,kappa")}


@pytest.mark.parametrize("held", KIND_FILES)
def test_profile_fit_refuses_another_kind(tmp_path, capsys, held):
    # the profile reader consulted no kind, and each of these exited 2 as
    # an incomplete y/z grid
    data = tmp_path / "data.csv"
    assert run(*KIND_FILES[held], "--paper-defaults", "--out", str(data)) == 0
    first = data.read_text().split(",", 1)[0]
    assert run("fit", "profile", "--paper-defaults", "--data", str(data)) == 2
    assert capsys.readouterr() == ("", f"error: {data}: {held} (first column "
                                   f"{first}), not a profile table\n")


def test_fit_decay_skips_failed_sweep_rows(tmp_path, capsys):
    # a trailing error column is not read, and a row whose error cell is
    # filled is skipped, in every fit's data file alike
    rows = ["t_s,n_atoms,sigma_n_atoms", "0,2e8,2e6", "1,1.5e8,1.5e6",
            "2,1.2e8,1.2e6", "5,8e7,8e5", "10,5e7,5e5"]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(rows) + "\n")
    assert run("fit", "decay", "--paper-defaults", "--data", str(plain)) == 0
    want = capsys.readouterr().out
    with_errors = tmp_path / "errors.csv"
    with_errors.write_text("\n".join(
        [rows[0] + ",error", *(r + "," for r in rows[1:3]),
         "3,nan,nan,untrapped cloud: gravity scale xi2 must exceed xi1",
         "4,x,,a message, with commas", *(r + "," for r in rows[3:])])
        + "\n")
    assert run("fit", "decay", "--paper-defaults",
               "--data", str(with_errors)) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("counts, sigmas", [
    ("1e8 1e8 1e8 1e8", {"gamma_sigma_per_s": "0.00267261",
                         "beta_dd_sigma_cm3_per_s": "inf"}),
    ("1e8 -1e8 5e7 4e7", {"gamma_sigma_per_s": "inf",
                          "beta_dd_sigma_cm3_per_s": "inf"})])
def test_fit_decay_reports_an_undetermined_sigma_as_inf(tmp_path, capsys,
                                                        counts, sigmas):
    # a flat series does not determine beta_dd, and one with a negative
    # count determines neither parameter: each such sigma prints inf, not
    # the pseudo-inverse's vanishing variance
    csv = tmp_path / "decay.csv"
    csv.write_text("t_s,n_atoms,sigma_n_atoms\n" + "".join(
        f"{t},{n},1e6\n" for t, n in enumerate(counts.split())))
    assert run("fit", "decay", "--paper-defaults", "--data", str(csv)) == 0
    rep = dict(line.split(" = ") for line in
               capsys.readouterr().out.splitlines() if " = " in line)
    assert {key: rep[key] for key in sigmas} == sigmas


@pytest.mark.parametrize("kind, parameter", zip(
    ("decay", "tof", "loading-rate"), sweeps.SWEEPABLE))
def test_time_series_fits_reject_a_sweep_table(tmp_path, capsys, kind,
                                               parameter):
    # a sweep table's first column is the swept trap parameter, not a time:
    # these fits read it positionally and exited 0, fit decay with beta_dd
    # at its bound and fit tof with a negative temperature
    table = tmp_path / "sweep.csv"
    assert run("sweep", "--paper-defaults",
               "--set", f"sweep_parameter={parameter}",
               "--set", "sweep_values=8,10,12,14",
               "--set", "sweep_outputs=kappa_abscissa,kappa",
               "--out", str(table)) == 0
    column = table.read_text().split(",", 1)[0]
    assert column.startswith(parameter)
    assert run("fit", kind, "--paper-defaults", "--data", str(table)) == 2
    assert capsys.readouterr() == ("", f"error: {table}: a sweep table "
                                   f"(first column {column}), not a time "
                                   "series\n")


@pytest.mark.parametrize("kind", ["decay", "tof", "loading-rate"])
def test_time_series_fits_reject_kappa_points(tmp_path, capsys, kind):
    # kappa points read positionally as a time series exited 0: fit decay
    # with beta_dd = 1.4e-81 cm^3/s and converged = True, fit tof with
    # temperature_uk = 1.4e+33
    data = tmp_path / "kappa.csv"
    assert run("synth", "--paper-defaults", "--out", str(data)) == 0
    assert data.read_text().startswith("rv_over_nmot2_m3_per_s,kappa,")
    assert run("fit", kind, "--paper-defaults", "--data", str(data)) == 2
    assert capsys.readouterr() == ("", f"error: {data}: kappa points (first "
                                   "column rv_over_nmot2_m3_per_s), not a "
                                   "time series\n")


@pytest.mark.parametrize("synth_kind", ["decay_curve", "loading_curve",
                                        "tof_series"])
def test_kappa_fit_rejects_a_time_series(tmp_path, capsys, synth_kind):
    # a time series read positionally as kappa points: fit kappa on a
    # decay curve with its t = 0 row masked printed beta_ed = 1.1e+44 with
    # converged = True
    data = tmp_path / "series.csv"
    assert run("synth", "--paper-defaults", "--set",
               f"synth_kind={synth_kind}", "--out", str(data)) == 0
    assert data.read_text().startswith("t_s,")
    assert run("fit", "kappa", "--paper-defaults", "--data", str(data)) == 2
    assert capsys.readouterr() == ("", f"error: {data}: a time series (first "
                                   "column t_s), not kappa points\n")


@pytest.mark.parametrize("outputs, column", [
    ("loading_rate,n_mt_steady", "abscissa"),
    ("kappa_abscissa,loading_rate", "kappa")])
def test_kappa_fit_names_a_sweep_table_s_missing_column(tmp_path, capsys,
                                                        outputs, column):
    # a sweep table without a kappa column was read by position: fit kappa
    # exited 0, its swept parameter and outputs fitted as (x, kappa, sigma)
    table = tmp_path / "sweep.csv"
    assert run("sweep", "--paper-defaults", "--set", "sweep_values=8,10,12,14",
               "--set", f"sweep_outputs={outputs}", "--out", str(table)) == 0
    assert run("fit", "kappa", "--paper-defaults", "--data", str(table)) == 2
    assert capsys.readouterr() == (
        "", f"error: {table}: no {column} column for the kappa fit\n")


KAPPA_HEADER = ",".join(sweeps.HEADER[sweeps.KAPPA_POINTS])
PROBE_ROWS = ("1e-14,3,0.03,1\n2e-14,4,0.04,1\n4e-14,500,0.05,0\n"
              "8e-14,6,0.06,1\n1.6e-13,7.5,0.075,1\n")


def test_kappa_fit_masks_named_columns(tmp_path, capsys):
    # named columns went to DataSet past its mask: the masked kappa = 500
    # row was fitted, beta_dd = 2.34e-12 cm^3/s against 9.64e-10 under a
    # positional header
    reports = []
    for header in (f"{KAPPA_HEADER},sigma_kappa,mask",
                   "x,y,sigma_y,mask"):
        data = tmp_path / "kappa.csv"
        data.write_text(f"{header}\n{PROBE_ROWS}")
        assert run("fit", "kappa", "--paper-defaults", "--data",
                   str(data)) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert reports[0].out.startswith("beta_dd_cm3_per_s = 9.64006e-10\n")


def test_fit_kappa_notes_a_beta_at_0(tmp_path, capsys):
    # log beta_ed stepped past exp's range: beta_ed = 0 with a nan sigma
    # and correlation 0 was reported as converged and nothing more
    data = tmp_path / "kappa.csv"
    data.write_text(f"x,y,sigma_y,mask\n{PROBE_ROWS}")
    assert run("fit", "kappa", "--paper-defaults", "--data", str(data)) == 0
    assert capsys.readouterr() == (
        "beta_dd_cm3_per_s = 9.64006e-10\n"
        "beta_dd_sigma_cm3_per_s = 9.8228e-12\n"
        "beta_ed_cm3_per_s = 0\n"
        "beta_ed_sigma_cm3_per_s = nan\n"
        "correlation = 0.0000\n"
        "converged = True\n"
        "note: beta_ed underflows to 0 in its log-space fit\n", "")


def test_fit_kappa_names_the_data_for_its_model_s_error(tmp_path, capsys):
    # a fit that drives both beta to 0, where kappa is undefined, ended
    # `it is set by beta_ed_cm3_per_s and beta_dd_cm3_per_s`, config keys
    # the fit never read
    data = tmp_path / "kappa.csv"
    data.write_text(f"{KAPPA_HEADER},sigma_kappa\n" + "".join(
        f"{x},{k},{1e12 * (x + k):.3g}\n"
        for x in (0.1, 0.3, 0.5, 0.7) for k in (1, 2, 3)))
    assert run("fit", "kappa", "--paper-defaults", "--data", str(data)) == 2
    assert capsys.readouterr() == ("", f"error: {data}: kappa undefined with "
                                   "both beta coefficients zero\n")


SERIES_ROWS = ("t_s,n_atoms,sigma_n_atoms\n0,1e8,1e6\n1,9e7,1e6\n"
               "2,8e7,1e6\n5,6e7,1e6\n")
PROFILE_ROWS = (
    "y_mm,z_mm,column_density\n-0.4,-3,2.14e+12\n-0.4,0,1.44e+13\n"
    "-0.4,3,2.14e+12\n0,-3,6.06e+12\n0,0,4.07e+13\n0,3,6.06e+12\n"
    "0.4,-3,1.31e+12\n0.4,0,8.8e+12\n0.4,3,1.31e+12\n")


@pytest.mark.parametrize("argv, text", [
    *(pytest.param(("fit", "kappa", "--data", "{}"),
                   f"{header}\n{PROBE_ROWS}", id=header)
      for header in (f"{KAPPA_HEADER},sigma_kappa,mask",
                     "x,y,sigma_y,mask")),
    *(pytest.param(("fit", kind, "--data", "{}"), SERIES_ROWS, id=kind)
      for kind in ("decay", "loading-rate")),
    pytest.param(("fit", "tof", "--data", "{}"),
                 NON_FINITE_FILES["tof"].format(bad="4e-4"), id="tof"),
    pytest.param(("fit", "profile", "--data", "{}"), PROFILE_ROWS,
                 id="profile"),
    pytest.param(("sweep", "--set", "sweep_values=8,20",
                  "--set", "sweep_nmot_csv={}"),
                 "value,n_mot\n8,4e6\n20,6e6\n", id="sweep_nmot_csv")])
def test_kappa_file_is_read_once(tmp_path, monkeypatch, capsys, argv, text):
    # a kappa file without a kappa column was read, then read again by
    # DataSet.from_csv; every reader reads its file once
    from cliptrap import flatfile

    data = tmp_path / "data.csv"
    data.write_text(text)
    reads = []
    read_lines = flatfile.read_lines
    monkeypatch.setattr(flatfile, "read_lines",
                        lambda path: reads.append(path) or read_lines(path))
    assert run(*(arg.format(data) for arg in argv), "--paper-defaults") == 0
    assert reads == [str(data)]


# a profile table that the time-series fits each read by position, and
# fitted with exit 0
PROFILE_GRID = "y_mm,z_mm,column_density\n" + "".join(
    f"{y},{z},{n:.3g}\n" for y in (0.1, 0.3, 0.5, 0.7) for z in (1, 2, 3)
    for n in [4e13 * math.exp(-((y - 0.4) / 0.3) ** 2 - (z - 2) ** 2 / 2.25)])
# the kind of file each synth kind writes
SYNTH_WRITES = {"loading_curve": sweeps.ATOM_NUMBERS,
                "decay_curve": sweeps.ATOM_NUMBERS,
                "tof_series": sweeps.RADII,
                "kappa_points": sweeps.KAPPA_POINTS}
# each writer's command and the kind of file it writes; None writes
# PROFILE_GRID
WRITERS = {
    "simulate": (("simulate",), sweeps.ATOM_NUMBERS),
    **{kind: (("synth", "--set", f"synth_kind={kind}"), held)
       for kind, held in SYNTH_WRITES.items()},
    "sweep": (KIND_FILES["a sweep table"], cli.SWEEP_TABLE),
    "profile": (None, sweeps.PROFILE_TABLE)}
# the kinds each fit takes
FIT_TAKES = {"loading-rate": (sweeps.ATOM_NUMBERS,),
             "decay": (sweeps.ATOM_NUMBERS,), "tof": (sweeps.RADII,),
             "kappa": (sweeps.KAPPA_POINTS, cli.SWEEP_TABLE),
             "profile": (sweeps.PROFILE_TABLE,)}
# a matched pair that its fit refuses for its own reason
OWN_REFUSALS = {
    ("simulate", "loading-rate"): "{}: expected at least 3 columns",
    ("simulate", "decay"): "{}: expected at least 3 columns",
    ("loading_curve", "decay"): "n0 must be positive",
    ("decay_curve", "loading-rate"): "the fitted loading rate is negative"}


@pytest.mark.parametrize("writer, fit", [
    pytest.param(w, f, id=f"{w}-{f}") for w in WRITERS for f in FIT_TAKES])
def test_each_writer_s_output_in_each_fit(tmp_path, capsys, writer, fit):
    # every time series was told apart by its first column t_s alone, and
    # the profile table not at all: seven mismatched pairs exited 0, a
    # decay curve into fit tof with temperature_uk = -2.25294e+12
    data = tmp_path / "data.csv"
    argv, held = WRITERS[writer]
    if argv is None:
        data.write_text(PROFILE_GRID)
    else:
        assert run(*argv, "--paper-defaults", "--out", str(data)) == 0
    code = run("fit", fit, "--paper-defaults", "--data", str(data))
    out, err = capsys.readouterr()
    want = FIT_TAKES[fit][0]
    if held in FIT_TAKES[fit]:
        reason = OWN_REFUSALS.get((writer, fit))
        if reason is None:
            assert (code, err) == (0, "") and out
        else:
            assert code == 2
            assert err.startswith(f"error: {reason.format(data)}")
        return
    # named by the first column where it differs, else by the second
    names = {k.partition(" of ")[0] for k in (held, want)}
    names = names if len(names) == 2 else {held, want}
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {data}: ") and err.count("\n") == 1
    assert all(name in err for name in names), (names, err)


def test_fit_kappa_step_past_exp_range(tmp_path, capsys):
    # a decay curve with every other row masked, fitted as kappa data: a
    # step took log beta past exp's range (about 709), and the run ended
    # with exit 3 and `numerical failure: math range error`
    data = tmp_path / "decay.csv"
    assert run("synth", "--paper-defaults", "--set", "synth_kind=decay_curve",
               "--set", "synth_points=30", "--set", "synth_noise=0.02",
               "--out", str(data)) == 0
    header, *rows = data.read_text().splitlines()
    # a first column named t_s is refused as kappa data: name it x, so the
    # same numbers still reach the solver
    header = header.replace("t_s", "x", 1)
    masked = tmp_path / "masked.csv"
    masked.write_text("\n".join([f"{header},mask", *(
        f"{row},{i % 2}" for i, row in enumerate(rows))]) + "\n")
    assert run("fit", "kappa", "--paper-defaults", "--data", str(masked)) == 0
    assert capsys.readouterr().err == ""


def test_nmot_csv_bad_cell_names_line(tmp_path, capsys):
    nmot = tmp_path / "nmot.csv"
    nmot.write_text("b_prime_g_per_cm,n_mot,sigma\n8,4e6,1\n20,6e6x,1\n")
    assert run("sweep", "--paper-defaults", "--set", "sweep_values=8,20",
               "--set", f"sweep_nmot_csv={nmot}") == 2
    assert capsys.readouterr() == (
        "", f"error: {nmot}:3: not a finite number: '6e6x'\n")


NMOT_SWEEP = ("sweep", "--paper-defaults", "--set", "sweep_values=8,12.5,20",
              "--set", "sweep_outputs=kappa,n_mot")


def test_nmot_csv_takes_a_sweep_table_s_n_mot_column(tmp_path, capsys):
    # a sweep table fed back was read by position: its kappa column set
    # every point's N_MOT, 39.62, 23.16 and 12.75 atoms
    table = tmp_path / "sweep.csv"
    assert run(*NMOT_SWEEP, "--out", str(table)) == 0
    assert run(*NMOT_SWEEP) == 0
    alone = capsys.readouterr()
    assert run(*NMOT_SWEEP, "--set", f"sweep_nmot_csv={table}") == 0
    assert capsys.readouterr() == alone
    assert alone.out.splitlines()[1].startswith("8,39.6200184242,5000000,")


def test_nmot_csv_of_value_and_n_mot(tmp_path, capsys):
    # a two-column table exited 2 with `expected at least 3 columns`; a
    # third column is not read
    reports = []
    for text in ("value,n_mot\n8,4e6\n12.5,5.5e6\n20,6e6\n",
                 "value,n_mot,sigma\n8,4e6,0\n12.5,5.5e6,-1\n20,6e6,1\n"):
        nmot = tmp_path / "nmot.csv"
        nmot.write_text(text)
        assert run(*NMOT_SWEEP, "--set", f"sweep_nmot_csv={nmot}") == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert [row.split(",")[2] for row in reports[0].out.splitlines()[1:]] == [
        "4000000", "5500000", "6000000"]


def test_nmot_csv_of_one_column(tmp_path, capsys):
    nmot = tmp_path / "nmot.csv"
    nmot.write_text("value\n8\n12.5\n20\n")
    assert run(*NMOT_SWEEP, "--set", f"sweep_nmot_csv={nmot}") == 2
    assert capsys.readouterr() == (
        "", f"error: {nmot}: expected at least 2 columns (value, n_mot)\n")


NMOT_REFUSALS = {
    "a time series": "a time series (first column t_s), not an N_MOT table",
    "kappa points": "kappa points (first column rv_over_nmot2_m3_per_s), "
                    "not an N_MOT table",
    "a sweep table": "no n_mot column for sweep_nmot_csv"}


@pytest.mark.parametrize("held", NMOT_REFUSALS)
def test_nmot_csv_refuses_a_file_without_n_mot(tmp_path, capsys, held):
    # each was read by position: a time series or kappa points exited 2 on
    # their first column's values, and a sweep table's second column, here
    # kappa_abscissa, was taken as N_MOT
    data = tmp_path / "data.csv"
    assert run(*KIND_FILES[held], "--paper-defaults",
               "--set", "sweep_values=8,12.5,20", "--out", str(data)) == 0
    assert run(*NMOT_SWEEP, "--set", f"sweep_nmot_csv={data}") == 2
    assert capsys.readouterr() == ("", f"error: {data}: "
                                   f"{NMOT_REFUSALS[held]}\n")


@pytest.mark.parametrize("counts, end", [("1e8 -9e7 8e7 6e7", "upper"),
                                        ("1e8 1.1e8 1.2e8 1.5e8", "lower")])
def test_fit_decay_notes_beta_dd_on_a_bound(tmp_path, capsys, counts, end):
    # a beta_dd on an end of its [e^-200, 1] m^3/s box, 1e+06 or 1.4e-81
    # cm^3/s, was reported with converged = True and nothing more
    csv = tmp_path / "decay.csv"
    csv.write_text("t_s,n_atoms,sigma_n_atoms\n" + "".join(
        f"{t},{n},1e6\n" for t, n in zip((0, 1, 2, 5), counts.split())))
    assert run("fit", "decay", "--paper-defaults", "--data", str(csv)) == 0
    assert capsys.readouterr().out.endswith(
        "converged = True\n"
        f"note: beta_dd ends on the {end} bound of its fit range\n")


def test_fit_tof_refuses_shrinking_radii(tmp_path, capsys):
    # radii of 0.3, 0.2 and 0.1 mm at 1, 2 and 3 ms printed
    # temperature_uk = -51.8202 with exit 0
    csv = tmp_path / "tof.csv"
    csv.write_text("t_s,sigma_m,sigma_sigma_m\n0.001,3e-4,1e-5\n"
                   "0.002,2e-4,1e-5\n0.003,1e-4,1e-5\n")
    assert run("fit", "tof", "--paper-defaults", "--data", str(csv)) == 2
    assert capsys.readouterr() == ("", "error: the fitted temperature is "
                                   "negative: the radii shrink as the cloud "
                                   "expands\n")


def test_fit_tof_degenerate_note_line(tmp_path, capsys):
    # sigma^2 = (kT/m) t^2 - 1e-9 m^2 fits a negative sigma0^2: the report
    # gives sigma0 = 0 and ends with a note line
    t = np.linspace(1e-3, 8e-3, 8)
    s = np.sqrt(0.05 ** 2 * t ** 2 - 1e-9)
    csv = tmp_path / "tof.csv"
    csv.write_text("t_s,sigma_m,sigma_sigma_m\n" + "".join(
        f"{a:.6g},{b:.10g},{b * 0.01:.10g}\n" for a, b in zip(t, s)))
    assert run("fit", "tof", "--paper-defaults", "--data", str(csv)) == 0
    assert capsys.readouterr().out == (
        "temperature_uk = 15.6354\n"
        "temperature_sigma_uk = 0.124875\n"
        "sigma0_mm = 0\n"
        "note: degenerate: fitted sigma0^2 < 0\n")


SYNTH_KINDS = ("kappa_points", "decay_curve", "tof_series", "loading_curve")
FIT_DATA = {"loading-rate": "loading_curve", "kappa": "kappa_points",
            "decay": "decay_curve", "tof": "tof_series", "profile": "profile"}


@pytest.fixture(scope="module")
def fit_data(tmp_path_factory):
    """One data file per FIT_DATA entry, from synth and a profile table."""
    from cliptrap.cloud import column_density, make_thermal_cloud
    from cliptrap.species import chromium_52
    from cliptrap.trap import IpTrapConfig

    d = tmp_path_factory.mktemp("fit_data")
    for kind in SYNTH_KINDS:
        assert run("synth", "--paper-defaults", "--set", f"synth_kind={kind}",
                   "--set", "synth_points=200", "--seed", "3",
                   "--out", str(d / f"{kind}.csv")) == 0
    cl = make_thermal_cloud(chromium_52(), IpTrapConfig(0.125, 10.5),
                            n=1e8, t=100e-6)
    lines = ["y_mm,z_mm,column_density"]
    for ym in np.linspace(-0.8, 0.8, 9):
        for zm in np.linspace(-5.0, 5.0, 7):
            val = column_density(cl, ym * 1e-3, zm * 1e-3)
            lines.append(f"{ym:.6g},{zm:.6g},{val:.10g}")
    (d / "profile.csv").write_text("\n".join(lines) + "\n")
    return d


def _every_command():
    """Arguments for each subcommand, each synth kind and each fit kind."""
    for name in cli.COMMANDS:
        if name == "synth":
            yield from ([name, "--set", f"synth_kind={kind}"]
                        for kind in SYNTH_KINDS)
        elif name == "fit":
            yield from ([name, kind] for kind in cli.FITS)
        else:
            yield [name]


@pytest.mark.parametrize("argv", list(_every_command()), ids=" ".join)
def test_stdout_equals_out_file_and_repeats(argv, fit_data, tmp_path,
                                            capsysbinary):
    # every command's text goes through one writer: the --out file holds
    # stdout's bytes, and the same seed gives the same bytes (criterion 12)
    if argv[0] == "fit":
        argv = [*argv, "--data", str(fit_data / f"{FIT_DATA[argv[1]]}.csv")]
    argv = [*argv, "--paper-defaults", "--seed", "5",
            "--set", "sweep_points=3"]
    out = tmp_path / "out.txt"
    assert run(*argv) == 0
    stdout = capsysbinary.readouterr().out
    assert run(*argv, "--out", str(out)) == 0
    assert capsysbinary.readouterr().out == b""
    assert run(*argv) == 0
    assert capsysbinary.readouterr().out == stdout == out.read_bytes()
    assert stdout.endswith(b"\n")


FIT_REPORTS = {
    "loading-rate": "loading_rate_atoms_per_s = 9.12062e+07\n",
    "kappa": "beta_dd_cm3_per_s = 1.28831e-11\n"
             "beta_dd_sigma_cm3_per_s = 3.65747e-13\n"
             "beta_ed_cm3_per_s = 6.52513e-10\n"
             "beta_ed_sigma_cm3_per_s = 2.39841e-11\n"
             "correlation = -0.7522\n"
             "converged = True\n",
    "decay": "gamma_per_s = 0\n"
             "gamma_sigma_per_s = 0.000546579\n"
             "beta_dd_cm3_per_s = 1.40267e-11\n"
             "beta_dd_sigma_cm3_per_s = 2.1027e-13\n"
             "converged = True\n",
    "tof": "temperature_uk = 96.065\n"
           "temperature_sigma_uk = 1.99636\n"
           "sigma0_mm = 0.178565\n",
    "profile": "temperature_uk = 100\n"
               "peak_density_per_cm3 = 1.02508e+11\n"
               "center_y_mm = 9.05345e-09\n"
               "center_z_mm = 5.60514e-23\n"
               "converged = True\n"}


@pytest.mark.parametrize("kind", FIT_REPORTS)
def test_fit_report_is_pinned(kind, fit_data, capsys):
    # every line's key, unit and digits, byte for byte
    assert run("fit", kind, "--paper-defaults", "--data",
               str(fit_data / f"{FIT_DATA[kind]}.csv")) == 0
    assert capsys.readouterr() == (FIT_REPORTS[kind], "")


# the fit each kind calls, by its name in cli
FIT_FUNCTIONS = {"loading-rate": "fit_loading_rate", "kappa": "fit_kappa",
                 "decay": "fit_decay", "tof": "fit_tof",
                 "profile": "fit_column_profile"}


@pytest.mark.parametrize("kind", FIT_FUNCTIONS)
def test_fit_calls_its_fit_by_module_name(kind, fit_data, monkeypatch,
                                          capsys):
    # bench/tracer.py wraps a fit where cli binds it; a FITS entry that
    # held the function object would call past the wrapper
    assert set(FIT_FUNCTIONS) == set(cli.FITS)
    original, calls = getattr(cli, FIT_FUNCTIONS[kind]), []

    def spy(*args):
        calls.append(kind)
        return original(*args)

    monkeypatch.setattr(cli, FIT_FUNCTIONS[kind], spy)
    assert run("fit", kind, "--paper-defaults", "--data",
               str(fit_data / f"{FIT_DATA[kind]}.csv")) == 0
    assert capsys.readouterr() == (FIT_REPORTS[kind], "")
    assert calls == [kind]


@pytest.mark.parametrize("kind,fit", [
    ("kappa_points", "kappa"), ("decay_curve", "decay"),
    ("tof_series", "tof"), ("loading_curve", "loading-rate")])
def test_default_synth_fits(kind, fit, tmp_path):
    # each synth kind at the paper defaults, no other key set, piped into
    # its fit: every reported value is finite
    data, report = tmp_path / "data.csv", tmp_path / "report.txt"
    assert run("synth", "--paper-defaults", "--set", f"synth_kind={kind}",
               "--out", str(data)) == 0
    assert run("fit", fit, "--paper-defaults", "--data", str(data),
               "--out", str(report)) == 0
    values = read_report(report)
    assert values
    for key, value in values.items():
        if key != "converged":
            assert math.isfinite(float(value)), key


def test_tof_synth_needs_no_loss_channel(tmp_path):
    # a TOF series reads neither R nor N_inf, so a scenario without any
    # loss channel (no steady state) still synthesises one
    base = ["synth", "--paper-defaults", "--set", "synth_kind=tof_series"]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert run(*base, "--out", str(want)) == 0
    assert run(*base, "--set", "beta_ed_cm3_per_s=0",
               "--set", "beta_dd_cm3_per_s=0", "--out", str(got)) == 0
    assert got.read_bytes() == want.read_bytes()


NO_STEADY_STATE = ("no steady state: loading without any loss channel; it "
                   "is set by gamma_d_per_s, beta_ed_cm3_per_s and "
                   "beta_dd_cm3_per_s")


@pytest.mark.parametrize("argv,message", [
    (["predict"], NO_STEADY_STATE),
    (["synth", "--set", "synth_kind=decay_curve"], NO_STEADY_STATE),
    (["synth", "--set", "synth_kind=loading_curve"], NO_STEADY_STATE),
    (["synth", "--set", "synth_kind=kappa_points"],
     "kappa undefined with both beta coefficients zero; it is set by "
     "beta_ed_cm3_per_s and beta_dd_cm3_per_s")],
    ids=["predict", "decay_curve", "loading_curve", "kappa_points"])
def test_no_loss_channel_names_its_keys(argv, message, capsys):
    assert run(*argv, "--paper-defaults", "--set", "beta_ed_cm3_per_s=0",
               "--set", "beta_dd_cm3_per_s=0") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["predict", "--set", "beta_ed_cm3_per_s=1e300"],
     "loading or loss rate overflows a float; it is set by "
     "beta_ed_cm3_per_s and n_mot"),
    (["synth", "--set", "n_mot=1e300"],
     "abscissa: N_MOT^2 under- or overflows a float; it is set by n_mot"),
    (["synth", "--set", "n_mot=1e-300"],
     "abscissa: N_MOT^2 under- or overflows a float; it is set by n_mot"),
    (["synth", "--set", "synth_noise=1e300"],
     "noise makes the data or their sigma overflow a float; it is set by "
     "synth_noise"),
    (["sweep", "--set", "b_prime_g_per_cm=1e-30"],
     "untrapped cloud: gravity scale xi2 must exceed xi1; it is set by "
     "b_prime_g_per_cm"),
    *((argv + ["--set", "beta_dd_cm3_per_s=1e300", "--set", "v_mt_cm3=1e-300"],
       "two-body loss rate 2 beta_dd / V_MT overflows a float; it is set by "
       "beta_dd_cm3_per_s and v_mt_cm3")
      for argv in (["simulate"], ["synth", "--set", "synth_kind=decay_curve"],
                   ["synth", "--set", "synth_kind=loading_curve"])),
    (["predict", "--set", "eta=1e-300", "--set", "n_mot=1e-150"],
     "loading rate underflows to 0; it is set by eta, n_mot, mot_saturation, "
     "mot_detuning_gamma and species"),
    *((["synth", "--set", a, "--set", b],
       "abscissa: R V_MT / N_MOT^2 under- or overflows a float; it is set by "
       "eta, n_mot, mot_saturation, mot_detuning_gamma, species and v_mt_cm3")
      for a, b in (("n_mot=1e-150", "v_mt_cm3=1e300"),
                   ("eta=1e-300", "n_mot=1e150"))),
    *((["synth", "--set", a, "--set", b],
       "kappa points need an abscissa x = R V_MT / N_MOT^2 with x / 10 > 0 "
       "and 10 x finite; it is set by eta, n_mot, mot_saturation, "
       "mot_detuning_gamma, species and v_mt_cm3")
      for a, b in (("n_mot=1e-12", "v_mt_cm3=1e300"),
                   ("eta=1e-12", "v_mt_cm3=1e-300"))),
    (["predict", "--set", "v_mt_cm3=5e-3", "--set", "b_prime_g_per_cm=1e300"],
     "trap cloud size under- or overflows a float; it is set by "
     "b_prime_g_per_cm, b_dprime_g_per_cm2 and t_mt_uk"),
    *((["synth", "--set", "synth_kind=tof_series", "--set", "v_mt_cm3=1e-300",
        "--set", setting],
       "trap cloud size under- or overflows a float; it is set by "
       "b_prime_g_per_cm, b_dprime_g_per_cm2 and t_mt_uk")
      for setting in ("b_prime_g_per_cm=1e-300", "t_mt_uk=1e300")),
    (["synth", "--set", "synth_kind=loading_curve", "--set", "eta=1e-16",
      "--set", "v_mt_cm3=1e308", "--set", "beta_dd_cm3_per_s=1e-300"],
     "a loading curve's span 10 tau_eff under- or overflows a float; it is "
     "set by gamma_d_per_s, beta_ed_cm3_per_s, beta_dd_cm3_per_s and "
     "v_mt_cm3"),
    (["predict", "--set", "v_mt_cm3=1e308", "--set",
      "beta_dd_cm3_per_s=1e-300", "--set", "eta=1e-18"],
     "tau_eff = N_inf / R overflows a float; it is set by gamma_d_per_s, "
     "beta_ed_cm3_per_s, beta_dd_cm3_per_s and v_mt_cm3")],
    ids=["rates", "n_mot_big", "n_mot_small", "noise", "untrapped",
         "k_simulate", "k_decay_curve", "k_loading_curve", "r_underflow",
         "abscissa_over", "abscissa_under", "kappa_grid_over",
         "kappa_grid_under", "no_gravity_volume", "tof_mu_b_underflow",
         "tof_kt_overflow", "loading_span", "tau_overflow"])
def test_out_of_range_names_its_keys(argv, message, capsys):
    # each exited 0 with an inf or a NaN, exited 3, or named no key
    assert run(*argv, "--paper-defaults") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command,setting,message", [
    ("predict", "b_prime_g_per_cm=-1", "radial_gradient must be positive"),
    ("predict", "b_dprime_g_per_cm2=0", "axial_curvature must be positive"),
    ("predict", "eta=2", "eta must be in [0, 1]"),
    ("predict", "t_mot_uk=-5", "temperature must be positive"),
    ("predict", "mot_saturation=-1", "total_saturation must be >= 0"),
    ("predict", "sigma_mot_radial_mm=0", "sigma_radial must be positive"),
    ("predict", "sigma_mot_axial_mm=-1", "sigma_axial must be positive"),
    ("simulate", "t_end_s=0", "t_end must be positive and finite: 0.0"),
    ("simulate", "n0_atoms=-1", "n0 must be >= 0")],
    ids=["b_prime", "b_dprime", "eta", "t_mot", "mot_saturation",
         "sigma_radial", "sigma_axial", "t_end", "n0"])
def test_field_range_error_names_its_key(command, setting, message, capsys):
    # each gave the model field's message and named no config key
    assert run(command, "--paper-defaults", "--set", setting) == 2
    key = setting.split("=")[0]
    assert capsys.readouterr().err == (
        f"error: {message}; it is set by {key}\n")


def test_tau_eff_where_n_inf_underflows(capsys):
    # N_inf = R tau_eff is about 4e-366, under float range, and tau_eff,
    # formed as N_inf / R, printed 0
    assert run("predict", "--paper-defaults", "--set",
               "b_dprime_g_per_cm2=1e150", "--set", "eta=1e-300") == 0
    report = dict(line.split(" = ") for line in
                  capsys.readouterr().out.splitlines())
    assert float(report["n_steady_atoms"]) == 0
    assert float(report["tau_eff_s"]) == pytest.approx(1.19213e-74,
                                                       rel=1e-5, abs=0)


@pytest.mark.parametrize("settings,message", [
    (["sweep_values=8,8"],
     "config key sweep_values: values must be strictly monotone"),
    (["sweep_values=-8,8"],
     "config key sweep_values: radial_gradient values must be positive"),
    (["sweep_start=-1"], "config keys sweep_start and sweep_stop: "
     "radial_gradient values must be positive"),
    (["sweep_parameter=bogus"], "config key sweep_parameter: sweep parameter "
     "must be one of radial_gradient, axial_curvature, offset_field: "
     "'bogus'"),
    (["sweep_outputs=kappa,,v_mt"],
     "config key sweep_outputs: unknown outputs: ['']"),
    (["sweep_outputs=kappa_abscissa,kappa,kappa"],
     "config key sweep_outputs: repeated outputs: ['kappa']"),
    (["sweep_values=8,20", "sweep_nmot_csv={nmot}"],
     "config key sweep_nmot_csv ({nmot}): "
     "n_mot_per_point values must be finite and >= 0")],
    ids=["monotone", "listed_negative", "start_negative", "parameter",
         "outputs", "repeated_outputs", "nmot_negative"])
def test_sweep_error_names_its_key(settings, message, tmp_path, capsys):
    # SweepSpec's messages named no config key, and the n_mot one no file
    nmot = tmp_path / "nmot.csv"
    nmot.write_text("b_prime_g_per_cm,n_mot,sigma\n8,-5,1\n20,6e6,1\n")
    argv = [a for s in settings for a in ("--set", s.format(nmot=nmot))]
    assert run("sweep", "--paper-defaults", *argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {message.format(nmot=nmot)}\n")


@pytest.mark.parametrize("stop", ["8", "8.000000000000002"])
def test_sweep_endpoints_too_close_named(stop, capsys):
    # ten values between equal or adjacent floats repeat; SweepSpec said
    # only "values must be strictly monotone"
    assert run("sweep", "--paper-defaults", "--set", "sweep_start=8",
               "--set", f"sweep_stop={stop}") == 2
    assert capsys.readouterr().err == (
        "error: config keys sweep_start and sweep_stop are too close for "
        "sweep_points distinct values\n")
    assert run("sweep", "--paper-defaults", "--set", "sweep_start=8",
               "--set", f"sweep_stop={stop}", "--set", "sweep_points=1") == 0


def test_huge_values_within_float_range(tmp_path):
    # R V_MT overflowed in the abscissa, which synth then failed to grid,
    # u0 t in simulate's n0 base, which printed inf, and sigma0^2 in the
    # tof_series synth, which exited 3
    csv = tmp_path / "kappa.csv"
    assert run("synth", "--paper-defaults", "--set", "v_mt_cm3=1e300",
               "--set", "n_mot=1e150", "--out", str(csv)) == 0
    x = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",")[:, 0]
    # the grid starts at x / 10, x = eta N_MOT / 2 Gamma_ed V_MT / N_MOT^2
    gamma_ed = 2 * math.pi * 5.02e6 / 2.5e5
    assert x[0] == pytest.approx(0.1 * 0.3 / 2 * gamma_ed * 1e294 / 1e150,
                                 rel=1e-11, abs=0)
    assert run("simulate", "--paper-defaults", "--set", "v_mt_cm3=1e300",
               "--set", "t_end_s=1e150", "--out", str(csv)) == 0
    n = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",")[:, 1]
    assert np.isfinite(n).all()
    # N(1e150 s) of the fifty-digit solution, test_dynamics.riccati_oracle
    assert n[-1] == pytest.approx(9.45472470067685e157, rel=1e-11, abs=0)
    # sigma0^2 overflows, though sigma0 = xi1 and the cloud are in range
    assert run("synth", "--paper-defaults", "--set", "synth_kind=tof_series",
               "--set", "v_mt_cm3=1e-300", "--set", "t_mt_uk=1e170",
               "--set", "b_dprime_g_per_cm2=1e300", "--out", str(csv)) == 0
    table = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",")
    assert np.isfinite(table).all()


def test_kappa_at_huge_beta_ed(tmp_path):
    # beta_ed squared is past float range here, so S is formed without it;
    # kappa is at its beta_ed end, 2 x / beta_ed
    cfg = {**cli.PAPER_DEFAULTS, "beta_ed_cm3_per_s": "1e200",
           "synth_noise": "0"}
    beta_ed = 1e200 * cli.UNITS["cm3_per_s"]
    data = sweeps.synthesize_measurements(cli.scenario_from_config(cfg),
                                          "kappa_points")
    assert data.y == pytest.approx(2 * data.x / beta_ed, rel=1e-12, abs=0)
    csv = tmp_path / "kappa.csv"
    assert run("synth", "--paper-defaults", "--set", "beta_ed_cm3_per_s=1e200",
               "--set", "synth_noise=0", "--out", str(csv)) == 0
    table = np.loadtxt(csv.read_text().splitlines()[1:], delimiter=",")
    # the CSV holds 12 significant digits
    assert table[:, 1] == pytest.approx(2 * table[:, 0] / beta_ed,
                                        rel=1e-11, abs=0)


def test_every_key_is_read(fit_data, monkeypatch):
    # each cli.KEYS entry is read by some command, not only by
    # build_config's check: a key that no command reads has no effect
    read = set()
    get = cli._get

    def recorder(cfg, name):
        read.add(name)
        return get(cfg, name)

    parser = cli._build_parser()
    for argv in _every_command():
        if argv[0] == "fit":
            argv = [*argv, "--data",
                    str(fit_data / f"{FIT_DATA[argv[1]]}.csv")]
        args = parser.parse_args([*argv, "--paper-defaults"])
        cfg = cli.build_config(args)
        with monkeypatch.context() as m:
            m.setattr(cli, "_get", recorder)
            cli.COMMANDS[args.command](cfg, args)
    assert set(cli.KEYS) - read == set()


CLOUD_RANGE = ("trap cloud size under- or overflows a float; it is set by "
               "b_prime_g_per_cm and b_dprime_g_per_cm2")


@pytest.mark.parametrize("setting,message", [
    ("b_prime_g_per_cm=1e305", CLOUD_RANGE),
    ("b_dprime_g_per_cm2=1e-320", CLOUD_RANGE),
    ("b_prime_g_per_cm=1e-30", "untrapped cloud: gravity scale xi2 must "
     "exceed xi1; it is set by b_prime_g_per_cm")],
    ids=["b_prime_over", "b_dprime_under", "untrapped"])
def test_profile_fit_names_a_bad_trap(fit_data, setting, message, capsys):
    # with V_MT given, the fit's 100 uK start is the first cloud built; no
    # key sets that temperature.  B'' = 1e-320 exited 3 on a division by
    # zero, B' = 1e305 printed a RuntimeWarning and "model not evaluable",
    # and the untrapped B' = 1e-30 exited 0 with a converged fit
    assert run("fit", "profile", "--paper-defaults", "--set", "v_mt_cm3=1",
               "--set", setting, "--data",
               str(fit_data / "profile.csv")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def noisy_profile():
    """A 41 x 31 image of the paper's cloud at 120 uK over +-6 xi1 and
    +-3 sigma_z, with 1.5 % multiplicative noise: (y, z, image), in m."""
    from cliptrap.cloud import column_density, make_thermal_cloud
    from cliptrap.species import chromium_52
    from cliptrap.trap import IpTrapConfig

    cl = make_thermal_cloud(chromium_52(), IpTrapConfig(0.125, 10.5),
                            n=1e8, t=120e-6)
    y = np.linspace(-6, 6, 41) * cl.xi1
    z = np.linspace(-3, 3, 31) * cl.sigma_z
    image = column_density(cl, y[:, None], z[None, :])
    image *= 1 + 0.015 * np.random.default_rng(28).standard_normal(
        image.shape)
    return y, z, image


@pytest.mark.parametrize("roll,b_dprime", [(0, "1e308"), (18, "200")],
                         ids=["sigma_z_subnormal_squared", "cloud_at_edge"])
def test_profile_fit_jacobian_stays_finite(noisy_profile, tmp_path, capfd,
                                           roll, b_dprime):
    # the Jacobian formed dz / sigma_z^2, which overflows once sigma_z^2
    # is subnormal, and exp(-y/xi2 - z^2/2 sigma_z^2) apart from uK1(u),
    # which overflows below a cloud at the grid's edge; each accepted
    # step then held inf * 0, warned, and LAPACK's SVD failed (exit 2).
    # The first image now fits its cloud; on the second, rolled so that
    # the cloud's tail wraps round the grid, the fit follows the tail to a
    # centre a metre away, which is named as off the image
    y, z, image = noisy_profile
    image = np.roll(image, roll, axis=0)
    csv = tmp_path / "profile.csv"
    csv.write_text("y_mm,z_mm,column_density\n" + "".join(
        f"{a * 1e3:.12g},{b * 1e3:.12g},{image[i, j]:.12g}\n"
        for i, a in enumerate(y) for j, b in enumerate(z)))
    code = run("fit", "profile", "--paper-defaults", "--set", "v_mt_cm3=1",
               "--set", f"b_dprime_g_per_cm2={b_dprime}", "--data", str(csv))
    out, err = capfd.readouterr()
    if roll == 0:
        assert code == 0 and err == ""
        rep = dict(line.split(" = ") for line in out.splitlines())
        assert rep["converged"] == "True"
        assert abs(float(rep["center_y_mm"])) < 1e3 * (y[1] - y[0])
        assert float(rep["temperature_uk"]) == pytest.approx(120, rel=0.01,
                                                             abs=0)
    else:
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: the fitted cloud centre \(y = \S+ mm, "
                            r"z = \S+ mm\) lies outside the image\n", err)


@pytest.mark.parametrize("argv,text,message", [
    (["synth", "--set", "synth_kind=loading_curve", "--set", "eta=0"], None,
     "a loading curve needs a loading rate > 0"),
    (["fit", "kappa"],
     "x,kappa,sigma\n1e-14,3,0.03\n2e-14,4,0.04\n4e-14,5,0.05\n",
     "{data}: no abscissa column for the kappa fit"),
    (["fit", "profile"], "y_mm,z_mm,column_density\n-0.1,-1,0\n-0.1,1,0\n"
     "0.1,-1,0\n0.1,1,0\n", "image contains no signal"),
    # the fit's start n0 = peak / (2 xi1) was inf: the model formed
    # inf * 0, warned, and the error read "model not evaluable"
    (["fit", "profile"], "y_mm,z_mm,column_density\n-0.1,-1,0\n-0.1,1,0\n"
     "0,-1,3e307\n0,1,0\n0.1,-1,0\n0.1,1,0\n",
     "the image's peak (3e+307) is out of float range for the profile fit"),
    # the amplitude was finite, but the Jacobian's f / T column was not:
    # LAPACK printed to stdout, and the error read "SVD did not converge"
    (["fit", "profile"], "y_mm,z_mm,column_density\n-0.1,-1,0\n-0.1,1,0\n"
     "0,-1,3e304\n0,1,0\n0.1,-1,0\n0.1,1,0\n",
     "the image's peak (3e+304) is out of float range for the profile fit"),
    (["fit", "decay"], "t_s,n_atoms,sigma_n_atoms\n0,0,1\n1,1.5e8,1.5e6\n"
     "2,1e8,1e6\n5,8e7,8e5\n", "n0 must be positive"),
    # the weighted columns' products overflowed: numpy warned, and lstsq
    # let LAPACK print to stdout and read "SVD did not converge"
    (["fit", "kappa"], "rv_over_nmot2_m3_per_s,kappa,sigma_kappa\n"
     "1e-14,1e4,1e-300\n2e-14,2e4,1e-300\n3e-14,3e4,1e-300\n"
     "4e-14,3.5e4,1e-300\n", "the fit's linear system is out of float range"),
    # numpy warned, and the fit exited 0 with temperature_sigma_uk = nan
    (["fit", "tof"], "t_s,sigma_m,sigma_sigma_m\n0.001,1e-160,1e-160\n"
     "0.002,1e-160,1e-160\n0.003,1e-160,1e-160\n",
     "the fit's linear system is out of float range"),
    # the start's and the loading rate's columns overflowed as kappa's did
    (["fit", "decay"], "t_s,n_atoms,sigma_n_atoms\n0,1e8,1e-300\n"
     "1,9e7,1e-300\n2,8e7,1e-300\n5,6e7,1e-300\n",
     "the fit's linear system is out of float range"),
    (["fit", "loading-rate"], "t_s,n_atoms,sigma_n_atoms\n0,0,1e-300\n"
     "1,1e7,1e-300\n2,2e7,1e-300\n3,2.5e7,1e-300\n5,3e7,1e-300\n",
     "the fit's linear system is out of float range"),
    # sigma^2 and its weight overflowed before the fit's np.errstate, and
    # the fit exited 0 with temperature_uk = 0 after three warnings
    (["fit", "tof"], "t_s,sigma_m,sigma_sigma_m\n0.001,1e200,1e199\n"
     "0.002,2e200,1e199\n0.003,3e200,1e199\n",
     "the fit's linear system is out of float range"),
    # int N^2 dt overflowed before the fit's np.errstate: the right error
    # came after two warnings
    (["fit", "decay"], "t_s,n_atoms,sigma_n_atoms\n0,1e200,1e198\n"
     "1,9.2e199,1e198\n2,8.4e199,1e198\n3,7.6e199,1e198\n"
     "4,6.8e199,1e198\n5,6e199,1e198\n",
     "the fit's linear system is out of float range"),
    (["fit", "loading-rate"], "t_s,n_atoms,sigma_n_atoms\n0,1e199,1e198\n"
     "1,2.8e199,1e198\n2,4.6e199,1e198\n3,6.4e199,1e198\n"
     "4,8.2e199,1e198\n5,1e200,1e198\n",
     "the fit's linear system is out of float range"),
    # t^2 overflowed before the fit's np.errstate: numpy warned, and the
    # error read "need at least 2 distinct expansion times"
    (["fit", "tof"], "t_s,sigma_m,sigma_sigma_m\n1e160,0.001,1e-5\n"
     "2e160,0.002,1e-5\n3e160,0.003,1e-5\n",
     "the fit's linear system is out of float range"),
    # exited 0 with beta_ed_cm3_per_s = 1.13943e+87, both sigmas inf and
    # converged = True
    (["fit", "kappa"], "rv_over_nmot2_m3_per_s,kappa,sigma_kappa\n"
     "1e-14,-3,0.03\n2e-14,-4,0.04\n4e-14,-5,0.05\n8e-14,-6,0.06\n",
     "kappa values must be positive"),
    # the invented sigma of kappa = 0 was 1e-300: the solver warned three
    # times, then read "the fit's linear system is out of float range"
    (["fit", "kappa"], "rv_over_nmot2_m3_per_s,kappa\n1e-14,3\n2e-14,0\n"
     "4e-14,5\n8e-14,6\n", "kappa values must be positive"),
    # a given sigma_kappa <= 0 was floored to 1e-300, and the fit read
    # "the fit's linear system is out of float range"
    (["fit", "kappa"], "rv_over_nmot2_m3_per_s,kappa,sigma_kappa\n"
     "1e-14,3,0.03\n2e-14,4,0\n4e-14,5,0.05\n8e-14,6,0.06\n",
     "{data}: all sigma_y must be positive"),
    (["fit", "kappa"], "rv_over_nmot2_m3_per_s,kappa,sigma_kappa\n"
     "1e-14,3,0.03\n2e-14,4,-0.04\n4e-14,5,0.05\n8e-14,6,0.06\n",
     "{data}: all sigma_y must be positive"),
    # the fit squares the radii: it exited 0 with temperature_uk = 106
    (["fit", "tof"], "t_s,sigma_m,sigma_sigma_m\n0.001,-2e-4,1e-5\n"
     "0.002,2.5e-4,1e-5\n0.003,-3.5e-4,1e-5\n0.004,6e-4,1e-5\n",
     "expansion radii must be positive")],
    ids=["loading_curve_without_rate", "kappa_without_abscissa",
         "profile_without_signal", "profile_past_float_range",
         "profile_jacobian_past_float_range", "decay_from_zero",
         "kappa_sigma_past_float_range", "tof_radii_past_float_range",
         "decay_sigma_past_float_range", "loading_sigma_past_float_range",
         "tof_squares_past_float_range", "decay_integrals_past_float_range",
         "loading_integrals_past_float_range", "tof_times_past_float_range",
         "kappa_negative", "kappa_zero_without_sigma", "kappa_sigma_zero",
         "kappa_sigma_negative", "tof_radii_negative"])
def test_input_error_exits_2(argv, text, message, tmp_path, capfd):
    data = tmp_path / "data.csv"
    if text is not None:
        data.write_text(text)
        argv = [*argv, "--data", str(data)]
    assert run(*argv, "--paper-defaults") == 2
    assert capfd.readouterr() == ("", f"error: {message.format(data=data)}\n")


def test_linalg_error_exits_2(fit_data, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError, so a solver's failure to
    # converge is reported with the input errors
    def fail(data):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "fit_kappa", fail)
    assert run("fit", "kappa", "--paper-defaults", "--data",
               str(fit_data / "kappa_points.csv")) == 2
    assert capsys.readouterr().err == "error: SVD did not converge\n"


def test_numerical_failure_exits_3(fit_data, monkeypatch, capsys):
    # an ArithmeticError that no input check foresaw is not an input error
    def fail(data):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "fit_kappa", fail)
    assert run("fit", "kappa", "--paper-defaults", "--data",
               str(fit_data / "kappa_points.csv")) == 3
    assert capsys.readouterr() == ("", "numerical failure: math range error\n")
