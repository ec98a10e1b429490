//! Request streams, recorded by the simulator from a seed.
//!
//! A stream is the sequence of gate calls one simulation makes, in order,
//! exactly as [`fg_scenario::workload::generate`] records it, but with the
//! mix (population size, bots, recording posture) chosen per workload. A
//! stream is never replayed on a service that has already decided part of
//! it: each wire run boots a fresh fg-serve, and each in-process pass
//! builds a fresh `DecisionService`.

use fg_behavior::legit::{LegitConfig, LegitPopulation};
use fg_behavior::seat_spinner::{SeatSpinner, SeatSpinnerConfig};
use fg_behavior::sms_pumper::{SmsPumper, SmsPumperConfig};
use fg_core::ids::{ClientId, FlightId};
use fg_core::rng::SeedFork;
use fg_core::time::SimTime;
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_scenario::app::{AppConfig, DefendedApp};
use fg_scenario::engine::{share, Simulation};
use fg_scenario::workload::WireRequest;

/// The defence posture a stream is recorded under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Posture {
    /// `PolicyConfig::recommended()`, as `workload::generate` records.
    Recommended,
    /// `PolicyConfig::unprotected()`: bots are never slowed down, so the
    /// stream carries the full attack volume.
    Unprotected,
}

/// What one simulation records.
#[derive(Clone, Debug, PartialEq)]
pub struct Mix {
    /// Posture the recording simulation runs under.
    pub posture: Posture,
    /// Simulated hours.
    pub horizon_hours: u64,
    /// Legitimate bookers arriving per day.
    pub arrivals_per_day: f64,
    /// Flights on sale (180 seats each).
    pub flights: u64,
    /// Seat-spinner bots (Airline A configuration).
    pub spinners: u64,
    /// SMS-pumper bots (Airline D configuration); together they pump at
    /// the rate of one Airline D pumper.
    pub pumpers: u64,
}

/// Legitimate requests per arriving booker in the production mix
/// (measured: 4,000 arrivals in 24 h record about 10,650 legit calls).
const LEGIT_CALLS_PER_BOOKER: f64 = 2.6;

impl Mix {
    /// Mostly-legitimate production traffic with one seat spinner and one
    /// SMS pumper, recorded under the recommended posture over one
    /// simulated day like `workload::generate`, sized to hold at least
    /// `requests` calls. Flights scale with bookers (100 per flight, as in
    /// `workload::generate`), so seats do not sell out as the stream grows.
    pub fn production(requests: usize) -> Mix {
        let arrivals = (requests as f64 / LEGIT_CALLS_PER_BOOKER).ceil().max(400.0);
        Mix {
            posture: Posture::Recommended,
            horizon_hours: 24,
            arrivals_per_day: arrivals,
            flights: (arrivals / 100.0).ceil() as u64,
            spinners: 1,
            pumpers: 1,
        }
    }

    /// An attack week recorded with no defence: eight seat spinners and
    /// four SMS pumpers (each at a quarter of the Airline D rate) among 400
    /// legitimate bookers a day. Many smaller bots keep the stream's make-up
    /// alike from seed to seed. `weeks` extends the horizon when a run
    /// needs a longer stream.
    pub fn attack_week(weeks: u64) -> Mix {
        Mix {
            posture: Posture::Unprotected,
            horizon_hours: 168 * weeks.max(1),
            arrivals_per_day: 400.0,
            flights: 8,
            spinners: 8,
            pumpers: 4,
        }
    }
}

/// Calls one attack week records (measured: about 108,000 at any seed).
pub const ATTACK_WEEK_CALLS: usize = 100_000;

/// Runs a team-free simulation of `mix` and returns the recorded stream.
pub fn record(mix: &Mix, seed: u64) -> Vec<WireRequest> {
    let fork = SeedFork::new(seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_hours(mix.horizon_hours);
    let policy = match mix.posture {
        Posture::Recommended => PolicyConfig::recommended(),
        Posture::Unprotected => PolicyConfig::unprotected(),
    };
    let mut app = DefendedApp::new(AppConfig::airline(policy), fork.seed("app"));
    let flights: Vec<FlightId> = (1..=mix.flights.max(1)).map(FlightId).collect();
    let departure = SimTime::from_hours(mix.horizon_hours + 21 * 24);
    for &f in &flights {
        app.add_flight(Flight::new(f, 180, departure));
    }
    app.record_workload();

    let mut sim = Simulation::new(app, fork.seed("sim"));
    let mut legit = LegitConfig::default_airline(flights.clone(), end);
    legit.arrivals_per_day = mix.arrivals_per_day;
    let (_legit, agent) = share(LegitPopulation::new(legit, geo.clone(), 1_000_000));
    sim.add_agent(agent, SimTime::ZERO);
    for i in 0..mix.spinners {
        let mut rng = fork.rng_indexed("spinner", i);
        let target = flights[i as usize % flights.len()];
        let (_s, agent) = share(SeatSpinner::new(
            SeatSpinnerConfig::airline_a(target),
            ClientId(1 + i),
            geo.clone(),
            &mut rng,
        ));
        sim.add_agent(agent, SimTime::from_mins(30 + 7 * i));
    }
    let rates = fg_smsgw::rates::RateTable::default_world();
    for i in 0..mix.pumpers {
        let mut rng = fork.rng_indexed("pumper", i);
        let target = flights[(i as usize + 1) % flights.len()];
        let mut config = SmsPumperConfig::airline_d(target, end);
        config.sms_per_hour /= mix.pumpers as f64;
        let (_p, agent) = share(SmsPumper::new(
            config,
            ClientId(100 + i),
            geo.clone(),
            &rates,
            &mut rng,
        ));
        sim.add_agent(agent, SimTime::from_mins(60 + 11 * i));
    }
    let mut stream = sim.run(end).take_workload();
    // Agents stamp the steps of one action with their own offsets, so the
    // gate sees some calls behind an earlier call's clock (about 30% of an
    // attack week; a handful behind the same client's). A service meets
    // requests in clock order, so the stream is put in that order.
    stream.sort_by_key(|r| r.now_ms);
    stream
}

/// Splits stream positions over `n` connections by client, so each
/// client's calls stay on one connection and in order.
pub fn partition(
    stream: &[WireRequest],
    range: std::ops::Range<usize>,
    n: usize,
) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::new(); n.max(1)];
    for i in range {
        let n = parts.len() as u64;
        parts[(stream[i].client.0 % n) as usize].push(i);
    }
    parts
}

/// A request's `POST /v1/decide` body.
pub fn body(request: &WireRequest) -> Vec<u8> {
    serde_json::to_string(request)
        .expect("requests serialize")
        .into_bytes()
}

/// The first position at which a client's session clock goes backwards
/// along `order`, if any.
pub fn clock_regression(stream: &[WireRequest], order: &[usize]) -> Option<usize> {
    let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut global = 0u64;
    for &i in order {
        let r = &stream[i];
        let prev = last.insert(r.client.0, r.now_ms).unwrap_or(0);
        if r.now_ms < prev || r.now_ms < global {
            return Some(i);
        }
        global = r.now_ms;
    }
    None
}

/// FNV-1a over a sequence of byte strings: the decision digest two runs
/// compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (and a separator) into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a whole stream's wire encoding.
#[cfg(test)]
fn stream_digest(stream: &[WireRequest]) -> Digest {
    let mut d = Digest::default();
    for r in stream {
        d.add(
            serde_json::to_string(r)
                .expect("requests serialize")
                .as_bytes(),
        );
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_attack() -> Mix {
        Mix {
            horizon_hours: 6,
            ..Mix::attack_week(1)
        }
    }

    #[test]
    fn each_generator_is_deterministic_per_seed() {
        for mix in [Mix::production(2_000), small_attack()] {
            let a = record(&mix, 3);
            let b = record(&mix, 3);
            assert!(!a.is_empty());
            assert_eq!(stream_digest(&a), stream_digest(&b), "{mix:?}");
            assert_ne!(stream_digest(&a), stream_digest(&record(&mix, 4)));
        }
    }

    #[test]
    fn production_mix_is_sized_and_mostly_legitimate() {
        let s = record(&Mix::production(6_000), 1);
        assert!(s.len() >= 6_000, "{} calls", s.len());
        let bots = s.iter().filter(|r| r.is_bot).count();
        assert!(bots * 10 < s.len(), "{bots} bot calls of {}", s.len());
    }

    #[test]
    fn no_session_clock_goes_backwards_within_a_stream() {
        for mix in [Mix::production(3_000), small_attack()] {
            let s = record(&mix, 9);
            let all: Vec<usize> = (0..s.len()).collect();
            assert_eq!(clock_regression(&s, &all), None);
            // Per connection, after the client partition.
            for part in partition(&s, 0..s.len(), 2) {
                assert_eq!(clock_regression(&s, &part), None);
            }
        }
    }

    #[test]
    fn partition_keeps_each_client_on_one_connection() {
        let s = record(&Mix::production(2_000), 5);
        let parts = partition(&s, 0..s.len(), 2);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), s.len());
        for (c, part) in parts.iter().enumerate() {
            assert!(part.windows(2).all(|w| w[0] < w[1]));
            assert!(part.iter().all(|&i| s[i].client.0 % 2 == c as u64));
        }
    }
}
