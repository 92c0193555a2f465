//! Lattice cell agents — the slow outer module of the virtual tissue.
//! Cells sit on lattice sites, take up nutrient, accumulate energy, divide
//! into free neighboring sites when well-fed, and die when starved.
//! "The core agent often representing biological cells" (§II-B).

use le_linalg::Rng;

use crate::field::Field;

/// One cell agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Lattice x position.
    pub x: usize,
    /// Lattice y position.
    pub y: usize,
    /// Internal energy store.
    pub energy: f64,
}

/// Cell behavioral parameters.
#[derive(Debug, Clone, Copy)]
pub struct CellRules {
    /// Nutrient uptake rate per tissue step (fraction of local field).
    pub uptake: f64,
    /// Energy cost of living per tissue step.
    pub maintenance: f64,
    /// Energy threshold for division.
    pub divide_at: f64,
    /// Energy of each daughter after division.
    pub daughter_energy: f64,
    /// Death threshold.
    pub die_below: f64,
}

impl Default for CellRules {
    fn default() -> Self {
        Self {
            uptake: 0.5,
            maintenance: 0.15,
            divide_at: 2.0,
            daughter_energy: 0.9,
            die_below: 0.0,
        }
    }
}

/// The cell population on a lattice of the given size.
#[derive(Debug, Clone)]
pub struct CellPopulation {
    /// Living cells.
    pub cells: Vec<Cell>,
    width: usize,
    height: usize,
    /// Occupancy grid (at most one cell per site).
    occupied: Vec<bool>,
}

impl CellPopulation {
    /// Seed `n` cells at random unoccupied sites.
    pub fn seed(width: usize, height: usize, n: usize, energy: f64, rng: &mut Rng) -> Self {
        let mut pop = Self {
            cells: Vec::with_capacity(n),
            width,
            height,
            occupied: vec![false; width * height],
        };
        let sites = rng.sample_indices(width * height, n.min(width * height));
        for s in sites {
            let (x, y) = (s % width, s / width);
            pop.occupied[s] = true;
            pop.cells.push(Cell { x, y, energy });
        }
        pop
    }

    /// Lattice width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lattice height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of living cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells remain.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Nutrient sink field: each cell removes `uptake × local concentration`
    /// per unit time at its site. Returned as a (negative) source field to
    /// feed the diffusion solver, alongside the energy actually absorbed.
    pub fn uptake_sinks(&self, nutrient: &Field, rules: &CellRules) -> (Field, Vec<f64>) {
        let mut sinks = Field::zeros(self.width, self.height);
        let mut absorbed = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let local = nutrient.get(cell.x, cell.y);
            let take = rules.uptake * local;
            sinks.add(cell.x, cell.y, -take);
            absorbed.push(take);
        }
        (sinks, absorbed)
    }

    /// One tissue-scale update: feed cells the absorbed nutrient, apply
    /// maintenance, division into a random free neighbor site, and death.
    pub fn update(&mut self, absorbed: &[f64], rules: &CellRules, rng: &mut Rng) {
        debug_assert_eq!(absorbed.len(), self.cells.len());
        let mut next: Vec<Cell> = Vec::with_capacity(self.cells.len() + 8);
        // Process in index order for determinism.
        for (i, cell) in self.cells.iter().enumerate() {
            let mut c = *cell;
            c.energy += absorbed[i] - rules.maintenance;
            if c.energy <= rules.die_below {
                // Death: free the site.
                self.occupied[c.y * self.width + c.x] = false;
                continue;
            }
            if c.energy >= rules.divide_at {
                // Division: find a free von Neumann neighbor.
                let mut free: Vec<(usize, usize)> = Vec::with_capacity(4);
                let (x, y) = (c.x as isize, c.y as isize);
                for (dx, dy) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx >= 0
                        && ny >= 0
                        && (nx as usize) < self.width
                        && (ny as usize) < self.height
                        && !self.occupied[ny as usize * self.width + nx as usize]
                    {
                        free.push((nx as usize, ny as usize));
                    }
                }
                if !free.is_empty() {
                    let (nx, ny) = free[rng.below(free.len())];
                    self.occupied[ny * self.width + nx] = true;
                    next.push(Cell {
                        x: nx,
                        y: ny,
                        energy: rules.daughter_energy,
                    });
                    c.energy = rules.daughter_energy;
                }
            }
            next.push(c);
        }
        self.cells = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_places_distinct_cells() {
        let mut rng = Rng::new(1);
        let pop = CellPopulation::seed(8, 8, 10, 1.0, &mut rng);
        assert_eq!(pop.len(), 10);
        let mut sites: Vec<usize> = pop.cells.iter().map(|c| c.y * 8 + c.x).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), 10, "no two cells share a site");
    }

    #[test]
    fn seeding_clamps_to_lattice_capacity() {
        let mut rng = Rng::new(2);
        let pop = CellPopulation::seed(3, 3, 100, 1.0, &mut rng);
        assert_eq!(pop.len(), 9);
    }

    #[test]
    fn uptake_proportional_to_local_nutrient() {
        let mut rng = Rng::new(3);
        let pop = CellPopulation::seed(4, 4, 3, 1.0, &mut rng);
        let mut nutrient = Field::filled(4, 4, 2.0);
        nutrient.set(pop.cells[0].x, pop.cells[0].y, 4.0);
        let rules = CellRules::default();
        let (sinks, absorbed) = pop.uptake_sinks(&nutrient, &rules);
        assert_eq!(absorbed[0], 0.5 * 4.0);
        assert_eq!(absorbed[1], 0.5 * 2.0);
        // Sinks are negative and mirror absorption.
        assert_eq!(
            sinks.get(pop.cells[0].x, pop.cells[0].y),
            -absorbed[0]
        );
    }

    #[test]
    fn starving_cells_die() {
        let mut rng = Rng::new(4);
        let mut pop = CellPopulation::seed(4, 4, 5, 0.1, &mut rng);
        let rules = CellRules::default();
        // No food: maintenance kills everyone within a step.
        let absorbed = vec![0.0; pop.len()];
        pop.update(&absorbed, &rules, &mut rng);
        assert!(pop.is_empty(), "starved cells should die");
    }

    #[test]
    fn well_fed_cells_divide() {
        let mut rng = Rng::new(5);
        let mut pop = CellPopulation::seed(8, 8, 4, 1.5, &mut rng);
        let rules = CellRules::default();
        let absorbed = vec![1.0; pop.len()]; // energy 2.5 > divide_at
        let before = pop.len();
        pop.update(&absorbed, &rules, &mut rng);
        assert!(pop.len() > before, "fed cells should divide");
        // Daughters have the configured energy.
        assert!(pop
            .cells
            .iter()
            .all(|c| (c.energy - rules.daughter_energy).abs() < 1e-12));
    }

    #[test]
    fn division_respects_occupancy() {
        let mut rng = Rng::new(6);
        // Full lattice: nobody can divide.
        let mut pop = CellPopulation::seed(3, 3, 9, 1.5, &mut rng);
        let rules = CellRules::default();
        let absorbed = vec![1.0; pop.len()];
        pop.update(&absorbed, &rules, &mut rng);
        assert_eq!(pop.len(), 9, "no free sites, no division");
        // All cells still on distinct sites.
        let mut sites: Vec<usize> = pop.cells.iter().map(|c| c.y * 3 + c.x).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), 9);
    }

    #[test]
    fn update_is_deterministic() {
        let run = || {
            let mut rng = Rng::new(8);
            let mut pop = CellPopulation::seed(6, 6, 8, 1.5, &mut rng);
            let rules = CellRules::default();
            for _ in 0..5 {
                let absorbed = vec![0.5; pop.len()];
                pop.update(&absorbed, &rules, &mut rng);
            }
            pop.cells.clone()
        };
        assert_eq!(run(), run());
    }
}
