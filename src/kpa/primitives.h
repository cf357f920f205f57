/**
 * @file
 * The KPA streaming primitives of Table 2.
 *
 * Every primitive does its work functionally on host data *and*
 * charges the simulated cost of the same work to a CostLog:
 *
 *   | primitive    | access pattern charged                        |
 *   |--------------|-----------------------------------------------|
 *   | Extract      | seq read bundle, seq write KPA                |
 *   | Materialize  | seq read KPA, random read records, seq write  |
 *   | KeySwap      | seq r/w KPA, random read records              |
 *   | Sort         | seq r/w KPA per merge pass                    |
 *   | Merge        | seq read both KPAs, seq write output          |
 *   | Join         | seq read both KPAs, random read matches, emit |
 *   | Select       | seq read input, seq write survivors           |
 *   | Partition    | seq read KPA, seq write partitions            |
 *   | Reduce keyed | seq read KPA, random read value columns, emit |
 *   | Reduce unkeyed | seq read bundle, emit                       |
 *
 * All primitives allocate outputs through HybridMemory so placement,
 * capacity pressure and memory-mode translation apply uniformly.
 */

#ifndef SBHBM_KPA_PRIMITIVES_H
#define SBHBM_KPA_PRIMITIVES_H

#include "kpa/ctx.h"
#include "kpa/join.h"
#include "kpa/key_update.h"
#include "kpa/partition.h"
#include "kpa/reduce.h"
#include "kpa/select.h"
#include "kpa/sort_merge.h"

#endif // SBHBM_KPA_PRIMITIVES_H
