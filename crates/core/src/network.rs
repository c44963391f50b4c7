//! Closed queueing-network model description.

use crate::service::Service;
use crate::{CoreError, Result};
use mapqn_linalg::DMatrix;
use mapqn_markov::Dtmc;

/// Scheduling discipline / station type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationKind {
    /// Single-server first-come-first-served queue.
    Queue,
    /// Infinite-server (delay) station: every job present is served in
    /// parallel. Used for client think times in the TPC-W model (Figure 2).
    Delay,
}

/// A service station of the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    /// Human-readable name used in reports and experiment output.
    pub name: String,
    /// Station type.
    pub kind: StationKind,
    /// Service process. Delay stations must use exponential service.
    pub service: Service,
}

impl Station {
    /// Creates a single-server FCFS queue.
    #[must_use]
    pub fn queue(name: impl Into<String>, service: Service) -> Self {
        Self {
            name: name.into(),
            kind: StationKind::Queue,
            service,
        }
    }

    /// Creates an infinite-server (delay) station with exponential think
    /// time of the given mean.
    ///
    /// # Errors
    /// Returns an error when the mean is not positive.
    pub fn delay(name: impl Into<String>, mean_think_time: f64) -> Result<Self> {
        if mean_think_time <= 0.0 || !mean_think_time.is_finite() {
            return Err(CoreError::InvalidNetwork(format!(
                "delay station mean think time must be positive, got {mean_think_time}"
            )));
        }
        Ok(Self {
            name: name.into(),
            kind: StationKind::Delay,
            service: Service::Exponential {
                rate: 1.0 / mean_think_time,
            },
        })
    }
}

/// A closed, single-class queueing network: `population` statistically
/// identical jobs circulate among the stations according to the routing
/// matrix.
///
/// The quickstart shape — a CPU queue feeding a bursty MAP disk in a closed
/// tandem — looks like this:
///
/// ```
/// use mapqn_core::{ClosedNetwork, Service, Station};
/// use mapqn_linalg::DMatrix;
/// use mapqn_stochastic::{fit_map2, Map2FitSpec};
///
/// // Disk service: mean 1.0, SCV 4 and geometrically decaying
/// // autocorrelation — consecutive slow requests come in runs.
/// let disk = fit_map2(&Map2FitSpec::new(1.0, 4.0, 0.5)).unwrap().map;
/// let network = ClosedNetwork::new(
///     vec![
///         Station::queue("cpu", Service::exponential(1.5).unwrap()),
///         Station::queue("disk", Service::map(disk)),
///     ],
///     DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]),
///     8, // jobs in the closed loop
/// )
/// .unwrap();
/// assert_eq!(network.num_stations(), 2);
/// assert_eq!(network.population(), 8);
/// // The disk is the bottleneck: higher service demand per cycle.
/// let demands = network.service_demands().unwrap();
/// assert!(demands[1] > demands[0]);
/// ```
#[derive(Debug, Clone)]
pub struct ClosedNetwork {
    stations: Vec<Station>,
    routing: DMatrix,
    population: usize,
}

impl ClosedNetwork {
    /// Creates and validates a closed network.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidNetwork`] when:
    /// * there are no stations, or the population is zero;
    /// * the routing matrix is not `M x M` or not stochastic;
    /// * a delay station has non-exponential service.
    ///
    /// Round-off negatives in the routing matrix (down to `-1e-8`) are
    /// accepted and stored as exactly `0.0`, so no engine ever sees a
    /// negative routing probability.
    pub fn new(stations: Vec<Station>, mut routing: DMatrix, population: usize) -> Result<Self> {
        let m = stations.len();
        if m == 0 {
            return Err(CoreError::InvalidNetwork(
                "network needs at least one station".into(),
            ));
        }
        if population == 0 {
            return Err(CoreError::InvalidNetwork(
                "closed network population must be at least one job".into(),
            ));
        }
        if routing.shape() != (m, m) {
            return Err(CoreError::InvalidNetwork(format!(
                "routing matrix is {}x{} but the network has {m} stations",
                routing.nrows(),
                routing.ncols()
            )));
        }
        // Row-by-row audit instead of a bare `is_stochastic` so a bad model
        // is rejected *here*, naming the offending row and value, rather
        // than failing deep inside the LP/CTMC engines (and so NaN — which
        // every `<`/`>` comparison silently waves through — is caught).
        for i in 0..m {
            let mut row_sum = 0.0;
            for j in 0..m {
                let p = routing[(i, j)];
                if !p.is_finite() {
                    return Err(CoreError::InvalidNetwork(format!(
                        "routing probability [{i}][{j}] (from '{}') is {p}, not a finite number",
                        stations[i].name
                    )));
                }
                if p < -1e-8 {
                    return Err(CoreError::InvalidNetwork(format!(
                        "routing probability [{i}][{j}] (from '{}') is negative: {p}",
                        stations[i].name
                    )));
                }
                if p < 0.0 {
                    routing[(i, j)] = 0.0;
                }
                row_sum += routing[(i, j)];
            }
            if (row_sum - 1.0).abs() > 1e-8 {
                return Err(CoreError::InvalidNetwork(format!(
                    "routing row {i} (from '{}') sums to {row_sum}, not 1",
                    stations[i].name
                )));
            }
        }
        for s in &stations {
            if s.kind == StationKind::Delay && !s.service.is_exponential() {
                return Err(CoreError::InvalidNetwork(format!(
                    "delay station '{}' must have exponential service",
                    s.name
                )));
            }
        }
        Ok(Self {
            stations,
            routing,
            population,
        })
    }

    /// Number of stations.
    #[must_use]
    pub fn num_stations(&self) -> usize {
        self.stations.len()
    }

    /// Job population `N`.
    #[must_use]
    pub fn population(&self) -> usize {
        self.population
    }

    /// The stations.
    #[must_use]
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// Station at index `k`.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn station(&self, k: usize) -> &Station {
        &self.stations[k]
    }

    /// Routing probability from station `from` to station `to`.
    #[must_use]
    pub fn routing(&self, from: usize, to: usize) -> f64 {
        self.routing[(from, to)]
    }

    /// The full routing matrix.
    #[must_use]
    pub fn routing_matrix(&self) -> &DMatrix {
        &self.routing
    }

    /// Returns a copy of this network with a different population (the
    /// common operation in population sweeps such as Figures 4 and 8).
    ///
    /// # Errors
    /// Returns an error when the new population is zero.
    pub fn with_population(&self, population: usize) -> Result<Self> {
        Self::new(self.stations.clone(), self.routing.clone(), population)
    }

    /// Whether every station is a single-server queue (no delay stations).
    #[must_use]
    pub fn is_queue_only(&self) -> bool {
        self.stations.iter().all(|s| s.kind == StationKind::Queue)
    }

    /// Whether every station has exponential service (the product-form
    /// case).
    #[must_use]
    pub fn is_exponential(&self) -> bool {
        self.stations.iter().all(|s| s.service.is_exponential())
    }

    /// Visit ratios relative to station 0: the solution of `v = v P`
    /// normalized so that `v[0] = 1`.
    ///
    /// # Errors
    /// Returns an error when the routing chain is reducible in a way that
    /// leaves station 0 unvisited.
    pub fn visit_ratios(&self) -> Result<Vec<f64>> {
        let chain = Dtmc::new(self.routing.clone())
            .map_err(|e| CoreError::InvalidNetwork(format!("invalid routing chain: {e}")))?;
        let pi = chain
            .stationary()
            .map_err(|e| CoreError::InvalidNetwork(format!("routing chain has no stationary distribution: {e}")))?;
        if pi[0] <= 0.0 {
            return Err(CoreError::InvalidNetwork(
                "reference station 0 is never visited under the routing matrix".into(),
            ));
        }
        Ok((0..self.num_stations()).map(|k| pi[k] / pi[0]).collect())
    }

    /// Service demands `D_k = v_k * E[S_k]` (visit ratio times mean service
    /// time), the quantities classical bounds are expressed in.
    ///
    /// # Errors
    /// Propagates visit-ratio and service-descriptor failures.
    pub fn service_demands(&self) -> Result<Vec<f64>> {
        let v = self.visit_ratios()?;
        let mut demands = Vec::with_capacity(self.num_stations());
        for (k, station) in self.stations.iter().enumerate() {
            demands.push(v[k] * station.service.mean()?);
        }
        Ok(demands)
    }

    /// Size of the joint phase space of all MAP stations (product of the
    /// per-station phase counts; 1 when every station is exponential).
    #[must_use]
    pub fn joint_phase_count(&self) -> usize {
        self.stations
            .iter()
            .map(|s| s.service.phases())
            .product()
    }

    /// Number of states of the underlying CTMC:
    /// `C(N + M - 1, M - 1) * joint phases` — the quantity that "explodes
    /// combinatorially" in the paper's discussion of computational
    /// tractability.
    #[must_use]
    pub fn global_state_count(&self) -> u128 {
        let n = self.population as u128;
        let m = self.num_stations() as u128;
        // C(n + m - 1, m - 1)
        let mut comb: u128 = 1;
        for i in 0..(m - 1) {
            comb = comb * (n + m - 1 - i) / (i + 1);
        }
        comb * self.joint_phase_count() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::approx_eq;
    use mapqn_stochastic::map2_correlated;

    fn tandem(rate1: f64, rate2: f64, n: usize) -> ClosedNetwork {
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        ClosedNetwork::new(
            vec![
                Station::queue("q1", Service::exponential(rate1).unwrap()),
                Station::queue("q2", Service::exponential(rate2).unwrap()),
            ],
            routing,
            n,
        )
        .unwrap()
    }

    #[test]
    fn tandem_network_basic_accessors() {
        let net = tandem(2.0, 3.0, 5);
        assert_eq!(net.num_stations(), 2);
        assert_eq!(net.population(), 5);
        assert_eq!(net.routing(0, 1), 1.0);
        assert_eq!(net.station(0).name, "q1");
        assert!(net.is_queue_only());
        assert!(net.is_exponential());
        assert_eq!(net.joint_phase_count(), 1);
        assert_eq!(net.global_state_count(), 6);
        let net10 = net.with_population(10).unwrap();
        assert_eq!(net10.population(), 10);
        assert!(net.with_population(0).is_err());
    }

    #[test]
    fn visit_ratios_of_tandem_are_equal() {
        let net = tandem(2.0, 3.0, 5);
        let v = net.visit_ratios().unwrap();
        assert!(approx_eq(v[0], 1.0, 1e-12));
        assert!(approx_eq(v[1], 1.0, 1e-12));
        let d = net.service_demands().unwrap();
        assert!(approx_eq(d[0], 0.5, 1e-12));
        assert!(approx_eq(d[1], 1.0 / 3.0, 1e-12));
    }

    #[test]
    fn visit_ratios_with_branching() {
        // Station 0 routes to 1 with prob 0.25 and to 2 with prob 0.75; both
        // return to 0. Visit ratios: v1 = 0.25, v2 = 0.75.
        let routing = DMatrix::from_row_slice(
            3,
            3,
            &[0.0, 0.25, 0.75, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        );
        let net = ClosedNetwork::new(
            vec![
                Station::queue("q0", Service::exponential(1.0).unwrap()),
                Station::queue("q1", Service::exponential(1.0).unwrap()),
                Station::queue("q2", Service::exponential(1.0).unwrap()),
            ],
            routing,
            3,
        )
        .unwrap();
        let v = net.visit_ratios().unwrap();
        assert!(approx_eq(v[0], 1.0, 1e-12));
        assert!(approx_eq(v[1], 0.25, 1e-12));
        assert!(approx_eq(v[2], 0.75, 1e-12));
    }

    #[test]
    fn invalid_networks_are_rejected() {
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        // No stations.
        assert!(ClosedNetwork::new(vec![], DMatrix::zeros(0, 0), 1).is_err());
        // Zero population.
        assert!(ClosedNetwork::new(
            vec![
                Station::queue("a", Service::exponential(1.0).unwrap()),
                Station::queue("b", Service::exponential(1.0).unwrap()),
            ],
            routing.clone(),
            0
        )
        .is_err());
        // Routing shape mismatch.
        assert!(ClosedNetwork::new(
            vec![Station::queue("a", Service::exponential(1.0).unwrap())],
            routing.clone(),
            1
        )
        .is_err());
        // Non-stochastic routing.
        let bad = DMatrix::from_row_slice(2, 2, &[0.5, 0.4, 1.0, 0.0]);
        assert!(ClosedNetwork::new(
            vec![
                Station::queue("a", Service::exponential(1.0).unwrap()),
                Station::queue("b", Service::exponential(1.0).unwrap()),
            ],
            bad,
            1
        )
        .is_err());
        // Delay station with MAP service.
        let map = map2_correlated(0.5, 1.0, 2.0, 0.3).unwrap();
        let bad_station = Station {
            name: "think".into(),
            kind: StationKind::Delay,
            service: Service::map(map),
        };
        assert!(ClosedNetwork::new(
            vec![
                bad_station,
                Station::queue("b", Service::exponential(1.0).unwrap()),
            ],
            routing,
            1
        )
        .is_err());
    }

    #[test]
    fn nan_and_inf_routing_is_rejected_by_name() {
        let stations = || {
            vec![
                Station::queue("cpu", Service::exponential(1.0).unwrap()),
                Station::queue("disk", Service::exponential(1.0).unwrap()),
            ]
        };
        // NaN slips through every `<`/`>` comparison; the constructor must
        // still reject it, naming the offending entry and station.
        let nan = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, f64::NAN, f64::NAN]);
        let err = ClosedNetwork::new(stations(), nan, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("NaN") && msg.contains("disk"), "{msg}");

        let inf = DMatrix::from_row_slice(2, 2, &[0.0, f64::INFINITY, 1.0, 0.0]);
        let err = ClosedNetwork::new(stations(), inf, 1).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");

        let negative = DMatrix::from_row_slice(2, 2, &[1.5, -0.5, 1.0, 0.0]);
        let err = ClosedNetwork::new(stations(), negative, 1).unwrap_err();
        assert!(err.to_string().contains("negative"), "{err}");

        let short = DMatrix::from_row_slice(2, 2, &[0.0, 0.9, 1.0, 0.0]);
        let err = ClosedNetwork::new(stations(), short, 1).unwrap_err();
        assert!(err.to_string().contains("sums to"), "{err}");
    }

    #[test]
    fn delay_station_constructor() {
        let s = Station::delay("clients", 2.0).unwrap();
        assert_eq!(s.kind, StationKind::Delay);
        assert!(approx_eq(s.service.mean().unwrap(), 2.0, 1e-12));
        assert!(Station::delay("bad", 0.0).is_err());
    }

    #[test]
    fn joint_phase_count_multiplies_map_phases() {
        let map = map2_correlated(0.5, 1.0, 2.0, 0.3).unwrap();
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let net = ClosedNetwork::new(
            vec![
                Station::queue("a", Service::map(map.clone())),
                Station::queue("b", Service::map(map)),
            ],
            routing,
            2,
        )
        .unwrap();
        assert_eq!(net.joint_phase_count(), 4);
        assert!(!net.is_exponential());
        // 3 job placements (2,0), (1,1), (0,2) times 4 phases.
        assert_eq!(net.global_state_count(), 12);
    }
}
