type traffic =
  | Ntp_poll of { period : Q.t }
  | Gossip of { mean_gap : Q.t }
  | Ring_token of { gap : Q.t }
  | Burst of { check_period : Q.t; width_target : Q.t }
  | Script of { sends : (Q.t * Event.proc * Event.proc) list }

type churn = { cuts : int; min_down : Q.t option; max_down : Q.t option }

type t = {
  spec : System_spec.t;
  seed : int;
  duration : Q.t;
  clock_policy : Clock.policy;
  clock_segment : Q.t;
  max_offset : Q.t;
  delay : Transport.delay_policy;
  loss_prob : float;
  loss_detect : Q.t;
  traffic : traffic;
  baselines : Baseline.t list;
  churn : churn option;
  validate : bool;
  validate_oracle : bool;
  series_cap : int;
  trace : Trace.sink;
  prof : Prof.t;
  faults : Fault.Injection.event list;
}

let lossy t = t.loss_prob > 0. || t.faults <> [] || t.churn <> None

let sec n = Q.of_int n
let ms n = Q.of_ints n 1_000
let us n = Q.of_ints n 1_000_000

let default ~spec ~traffic =
  {
    spec;
    seed = 42;
    duration = sec 60;
    clock_policy = `Random;
    clock_segment = sec 5;
    max_offset = sec 1;
    delay = `Uniform;
    loss_prob = 0.;
    loss_detect = sec 1;
    traffic;
    baselines = [];
    churn = None;
    validate = false;
    validate_oracle = false;
    series_cap = 2_000;
    trace = Trace.null;
    prof = Prof.null;
    faults = [];
  }
